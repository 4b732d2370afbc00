package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFactorizeInto is the textbook kernel FactorizeInto replaced, kept
// verbatim as the bit-identity oracle: a separate copy pass, Mat.NormInf for
// the singularity floor, At/Set element access, and a division for every
// sub-pivot entry.
func refFactorizeInto(f *LU, a *Mat) error {
	n := a.Rows
	f.reused = f.lu != nil && f.lu.Rows == n && f.lu.Cols == n && cap(f.piv) >= n
	if !f.reused {
		f.lu = NewMat(n, n)
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
	copy(f.lu.Data, a.Data)
	f.sign = 1
	f.n = n
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	scale := lu.NormInf()
	if scale == 0 {
		if n == 0 {
			return nil
		}
		return ErrSingular
	}
	tol := scale * 1e-300
	for k := 0; k < n; k++ {
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs <= tol || math.IsNaN(maxAbs) {
			return fmt.Errorf("%w (pivot %d, |pivot|=%.3g)", ErrSingular, k, maxAbs)
		}
		if p != k {
			rk := lu.Data[k*n : (k+1)*n]
			rp := lu.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Data[i*n : (i+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// refSolveInto is SolveInto over the replaced substitution kernel.
func refSolveInto(f *LU, dst, b Vec) Vec {
	for i, p := range f.piv {
		dst[i] = b[p]
	}
	n, lu := f.n, f.lu
	for i := 1; i < n; i++ {
		s := dst[i]
		row := lu.Data[i*n : (i+1)*n]
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		row := lu.Data[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
	return dst
}

// refSolveMatInto is the column-at-a-time SolveMatInto kernel the row-major
// one replaced: each column permuted and substituted strided in dst.
func refSolveMatInto(f *LU, dst, b *Mat) *Mat {
	n, lu, cols := f.n, f.lu, b.Cols
	for j := 0; j < cols; j++ {
		for i, p := range f.piv {
			dst.Data[i*cols+j] = b.Data[p*cols+j]
		}
		for i := 1; i < n; i++ {
			s := dst.Data[i*cols+j]
			row := lu.Data[i*n : (i+1)*n]
			for k := 0; k < i; k++ {
				s -= row[k] * dst.Data[k*cols+j]
			}
			dst.Data[i*cols+j] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := dst.Data[i*cols+j]
			row := lu.Data[i*n : (i+1)*n]
			for k := i + 1; k < n; k++ {
				s -= row[k] * dst.Data[k*cols+j]
			}
			dst.Data[i*cols+j] = s / row[i]
		}
	}
	return dst
}

// sameBits returns the first index where two equal-length float slices
// differ bit for bit (±0 and NaN payloads included), or −1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		panic("sameBits: length mismatch")
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sparseSignedMat draws an n×n matrix with structural zeros of both signs,
// mixed-sign entries (so pivots go negative) and, unless boost, no diagonal
// dominance (so partial pivoting swaps rows).
func sparseSignedMat(r *rand.Rand, n int, density float64, boost bool) *Mat {
	m := NewMat(n, n)
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < density:
			m.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		case u < density+(1-density)/2:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	if boost {
		for i := 0; i < n; i++ {
			m.Addf(i, i, -float64(n))
		}
	}
	return m
}

// TestFactorizeIntoBitIdenticalToReference is the fused kernel's contract:
// packed factors, pivots, sign, error and every solution bit — vector and
// matrix right-hand sides — equal the replaced kernels' on random matrices
// with structural zeros, negative pivots and row swaps.
func TestFactorizeIntoBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(2015))
	var got, want LU
	swaps, singular := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(20)
		a := sparseSignedMat(r, n, 0.15+0.8*r.Float64(), r.Intn(3) == 0)
		errGot := got.FactorizeInto(a)
		errWant := refFactorizeInto(&want, a)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("trial %d (n=%d): error %v, reference %v", trial, n, errGot, errWant)
		}
		if errWant != nil {
			singular++
			continue
		}
		if i := sameBits(got.lu.Data, want.lu.Data); i >= 0 {
			t.Fatalf("trial %d (n=%d): packed factor %d is %x, reference %x",
				trial, n, i, got.lu.Data[i], want.lu.Data[i])
		}
		if got.sign != want.sign {
			t.Fatalf("trial %d: sign %d, reference %d", trial, got.sign, want.sign)
		}
		for i := range want.piv {
			if got.piv[i] != want.piv[i] {
				t.Fatalf("trial %d: pivot %d is %d, reference %d", trial, i, got.piv[i], want.piv[i])
			}
			if want.piv[i] != i {
				swaps++
			}
		}
		b := NewVec(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, xRef := got.SolveInto(NewVec(n), b), refSolveInto(&want, NewVec(n), b)
		if i := sameBits(x, xRef); i >= 0 {
			t.Fatalf("trial %d (n=%d): solution %d is %x, reference %x", trial, n, i, x[i], xRef[i])
		}
		// Matrix right-hand sides, with structural zeros of both signs.
		cols := 1 + r.Intn(n+2)
		bm := NewMat(n, cols)
		bm.Data = sparseSignedMat(r, n+cols, 0.6, false).Data[:n*cols]
		xm := got.SolveMatInto(NewMat(n, cols), bm)
		xmRef := refSolveMatInto(&want, NewMat(n, cols), bm)
		if i := sameBits(xm.Data, xmRef.Data); i >= 0 {
			t.Fatalf("trial %d (n=%d, %d columns): SolveMatInto entry %d is %x, reference %x",
				trial, n, cols, i, xm.Data[i], xmRef.Data[i])
		}
	}
	if swaps == 0 || singular == 0 {
		t.Fatalf("draws exercised %d row swaps and %d singular matrices; want both", swaps, singular)
	}
}
