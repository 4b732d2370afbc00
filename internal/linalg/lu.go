package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
//
// The zero LU is ready for FactorizeInto, which retains its packed-factor and
// pivot buffers across calls: a pinned LU refactorized every Newton iteration
// allocates only on the first call (or when the matrix dimension grows).
// tbuf is private scratch for SolveTInto, so the -Into methods of one LU
// value must not be called concurrently; the allocating Solve/SolveMat
// wrappers, and SolveTBuf, remain safe for concurrent use on a shared
// factorization.
type LU struct {
	lu     *Mat  // packed L (unit lower) and U
	piv    []int // row permutation
	sign   int   // permutation sign, for Det
	n      int
	tbuf   Vec  // SolveTInto intermediate (lazy)
	reused bool // last FactorizeInto reused retained buffers
}

// Factorize computes the LU factorization of the square matrix a with
// partial pivoting. a is not modified. It returns ErrSingular when a pivot
// underflows relative to the matrix scale.
func Factorize(a *Mat) (*LU, error) {
	f := &LU{}
	if err := f.FactorizeInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorizeInto recomputes the factorization of a into f's retained buffers,
// allocating only when f has never factorized a matrix of this size. a is
// not modified. On error the factorization is invalid and must not be used
// for solves. Use ReusedBuffers to observe whether the call allocated.
//
// The copy of a and the row-sum scale for the singularity floor run as one
// pass, and elimination indexes the packed rows directly. The arithmetic is
// the textbook partial-pivoting sequence, operation for operation: a zero
// sub-pivot entry skips only the division, storing the signed zero it would
// have produced.
func (f *LU) FactorizeInto(a *Mat) error {
	if a.Rows != a.Cols {
		panic("linalg: Factorize requires a square matrix")
	}
	n := a.Rows
	f.reused = f.lu != nil && f.lu.Rows == n && f.lu.Cols == n && cap(f.piv) >= n
	if !f.reused {
		f.lu = NewMat(n, n)
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
	f.sign = 1
	f.n = n
	for i := range f.piv {
		f.piv[i] = i
	}
	data := f.lu.Data[:n*n]
	src := a.Data[:n*n]
	// Copy a in and take its infinity norm (max row sum of |a_ij|) on the way.
	scale := 0.0
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range src[i*n : (i+1)*n] {
			row[j] = v
			s += math.Abs(v)
		}
		if s > scale {
			scale = s
		}
	}
	if scale == 0 {
		if n == 0 {
			return nil
		}
		return ErrSingular
	}
	tol := scale * 1e-300 // absolute floor; relative conditioning handled by caller
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p, maxAbs := k, math.Abs(data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(data[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs <= tol || math.IsNaN(maxAbs) {
			return fmt.Errorf("%w (pivot %d, |pivot|=%.3g)", ErrSingular, k, maxAbs)
		}
		rk := data[k*n : (k+1)*n]
		if p != k {
			rp := data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := rk[k]
		rk = rk[k+1:]
		for i := k + 1; i < n; i++ {
			row := data[i*n : (i+1)*n]
			e := row[k]
			if e == 0 {
				// 0/pivot is a zero carrying the quotient's sign.
				if pivot < 0 {
					row[k] = -e
				}
				continue
			}
			m := e / pivot
			row[k] = m
			if m == 0 {
				continue
			}
			ri := row[k+1:]
			ri = ri[:len(rk)]
			for j, v := range rk {
				ri[j] -= m * v
			}
		}
	}
	return nil
}

// ReusedBuffers reports whether the most recent FactorizeInto reused the
// retained factor/pivot buffers instead of allocating fresh ones.
func (f *LU) ReusedBuffers() bool { return f.reused }

// Solve solves A·x = b and returns x; b is not modified.
func (f *LU) Solve(b Vec) Vec {
	return f.SolveInto(NewVec(f.n), b)
}

// SolveInto solves A·x = b into dst and returns dst. dst must not alias b;
// b is not modified. No allocation occurs.
func (f *LU) SolveInto(dst, b Vec) Vec {
	if len(b) != f.n || len(dst) != f.n {
		panic("linalg: LU.SolveInto dimension mismatch")
	}
	if f.n > 0 && &dst[0] == &b[0] {
		panic("linalg: LU.SolveInto dst must not alias b")
	}
	for i, p := range f.piv {
		dst[i] = b[p]
	}
	f.solveInPlace(dst)
	return dst
}

// SolveTInto solves Aᵀ·x = b into dst and returns dst. dst must not alias b.
// It uses a lazily pinned intermediate inside the LU, so after the first call
// the steady state is allocation-free — and therefore one LU's -Into methods
// must not be shared across goroutines (use SolveTBuf on shared
// factorizations).
func (f *LU) SolveTInto(dst, b Vec) Vec {
	n := f.n
	if len(b) != n || len(dst) != n {
		panic("linalg: LU.SolveTInto dimension mismatch")
	}
	if n > 0 && &dst[0] == &b[0] {
		panic("linalg: LU.SolveTInto dst must not alias b")
	}
	if cap(f.tbuf) < n {
		f.tbuf = NewVec(n)
	}
	return f.SolveTBuf(dst, b, f.tbuf[:n])
}

// SolveTBuf solves Aᵀ·x = b into dst and returns dst, with the caller's y
// (length n) holding the intermediate. It writes nothing of f, so any
// number of goroutines may call it on one shared factorization without
// allocating. dst must alias neither b nor y; y may be b itself, which is
// then overwritten. SolveTInto runs through it.
func (f *LU) SolveTBuf(dst, b, y Vec) Vec {
	n := f.n
	if len(b) != n || len(dst) != n || len(y) != n {
		panic("linalg: LU.SolveTBuf dimension mismatch")
	}
	if n > 0 && (&dst[0] == &b[0] || &dst[0] == &y[0]) {
		panic("linalg: LU.SolveTBuf dst must not alias b or y")
	}
	copy(y, b)
	lu := f.lu
	// Aᵀ = Uᵀ Lᵀ P, so solve Uᵀ y = b, Lᵀ z = y, then x = Pᵀ z.
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			y[i] -= lu.At(k, i) * y[k]
		}
		y[i] /= lu.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			y[i] -= lu.At(k, i) * y[k]
		}
	}
	for i, p := range f.piv {
		dst[p] = y[i]
	}
	return dst
}

// solveInPlace applies forward/back substitution to a permuted RHS.
func (f *LU) solveInPlace(x Vec) {
	n, data := f.n, f.lu.Data
	x = x[:n]
	for i := 1; i < n; i++ {
		l := data[i*n : i*n+i]
		xs := x[:len(l)]
		s := x[i]
		for k, v := range l {
			s -= v * xs[k]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := data[i*n : (i+1)*n]
		u := row[i+1:]
		xs := x[i+1:]
		xs = xs[:len(u)]
		s := x[i]
		for k, v := range u {
			s -= v * xs[k]
		}
		x[i] = s / row[i]
	}
}

// SolveMat solves A·X = B column by column.
func (f *LU) SolveMat(b *Mat) *Mat {
	return f.SolveMatInto(NewMat(f.n, b.Cols), b)
}

// SolveMatInto solves A·X = B into dst without allocating and returns dst.
// dst must not alias b; b is not modified. Each column of X sees SolveInto's
// arithmetic in SolveInto's order, so the result is bitwise identical to
// solving column by column; the substitutions run row by row across all
// columns at once, which keeps the rows contiguous and lets the columns'
// independent divisions overlap.
func (f *LU) SolveMatInto(dst, b *Mat) *Mat {
	n := f.n
	if b.Rows != n || dst.Rows != n || dst.Cols != b.Cols {
		panic("linalg: LU.SolveMatInto dimension mismatch")
	}
	if n > 0 && b.Cols > 0 && &dst.Data[0] == &b.Data[0] {
		panic("linalg: LU.SolveMatInto dst must not alias b")
	}
	lu, cols, d := f.lu.Data, b.Cols, dst.Data
	for i, p := range f.piv {
		copy(d[i*cols:(i+1)*cols], b.Data[p*cols:(p+1)*cols])
	}
	for i := 1; i < n; i++ {
		di := d[i*cols : (i+1)*cols]
		for k, l := range lu[i*n : i*n+i] {
			dk := d[k*cols : (k+1)*cols]
			dk = dk[:len(di)]
			for j := range di {
				di[j] -= l * dk[j]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		di := d[i*cols : (i+1)*cols]
		row := lu[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			u, dk := row[k], d[k*cols:(k+1)*cols]
			dk = dk[:len(di)]
			for j := range di {
				di[j] -= u * dk[j]
			}
		}
		pivot := row[i]
		for j := range di {
			di[j] /= pivot
		}
	}
	return dst
}

// Det returns det(A) from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve is a convenience wrapper: factorize a and solve a·x = b.
func Solve(a *Mat, b Vec) (Vec, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns A⁻¹ (small matrices only; used in tests and Floquet work).
func Inverse(a *Mat) (*Mat, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMat(Eye(a.Rows)), nil
}
