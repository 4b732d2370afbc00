package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

func TestEigenvaluesDiagonal(t *testing.T) {
	a := FromRows([][]float64{
		{3, 0, 0},
		{0, -1, 0},
		{0, 0, 0.5},
	})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{real(ev[0]), real(ev[1]), real(ev[2])}
	sort.Float64s(got)
	want := []float64{-1, 0.5, 3}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-10) {
			t.Errorf("eig[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestEigenvaluesComplexPair(t *testing.T) {
	// Rotation-like matrix: eigenvalues cosθ ± i·sinθ scaled by r.
	theta, r := 0.7, 1.3
	a := FromRows([][]float64{
		{r * math.Cos(theta), -r * math.Sin(theta)},
		{r * math.Sin(theta), r * math.Cos(theta)},
	})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ev {
		if !almostEq(cmplx.Abs(e), r, 1e-10) {
			t.Errorf("|eig| = %g, want %g", cmplx.Abs(e), r)
		}
		if !almostEq(math.Abs(imag(e)), r*math.Sin(theta), 1e-10) {
			t.Errorf("imag = %g, want ±%g", imag(e), r*math.Sin(theta))
		}
	}
}

func TestEigenvaluesTraceDetInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(7)
		a := NewMat(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		ev, err := Eigenvalues(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum, prod complex128 = 0, 1
		for _, e := range ev {
			sum += e
			prod *= e
		}
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		f, err := Factorize(a)
		var det float64
		if err == nil {
			det = f.Det()
		}
		if !almostEq(real(sum), trace, 1e-7*(1+math.Abs(trace))) || math.Abs(imag(sum)) > 1e-7 {
			t.Errorf("trial %d: Σeig = %v, trace = %g", trial, sum, trace)
		}
		if err == nil {
			if !almostEq(real(prod), det, 1e-6*(1+math.Abs(det))) {
				t.Errorf("trial %d: Πeig = %v, det = %g", trial, prod, det)
			}
		}
	}
}

func TestPowerIterationDominantPair(t *testing.T) {
	a := FromRows([][]float64{
		{2, 0, 0},
		{0, 0.5, 0},
		{0, 0, -0.1},
	})
	lambda, v, err := PowerIteration(a, nil, 500, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lambda, 2, 1e-8) {
		t.Errorf("lambda = %g, want 2", lambda)
	}
	if !almostEq(math.Abs(v[0]), 1, 1e-6) {
		t.Errorf("eigenvector = %v, want ±e1", v)
	}
}

func TestInverseIterationNearUnitEigenvalue(t *testing.T) {
	// Monodromy-like matrix: eigenvalues {1, 0.3, 0.05}.
	d := FromRows([][]float64{
		{1, 0, 0},
		{0, 0.3, 0},
		{0, 0, 0.05},
	})
	// Similarity transform to hide the structure.
	p := FromRows([][]float64{
		{1, 2, 0},
		{0, 1, 1},
		{1, 0, 3},
	})
	pinv, err := Inverse(p)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Mul(d).Mul(pinv)
	lambda, v, err := InverseIteration(a, 1.0, 200, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lambda, 1, 1e-8) {
		t.Errorf("lambda = %g, want 1", lambda)
	}
	// Check A·v = v.
	av := a.MulVec(v)
	av.Sub(av, v)
	if av.NormInf() > 1e-8 {
		t.Errorf("residual |Av - v| = %g", av.NormInf())
	}
}

func TestLeftNullVector(t *testing.T) {
	// Singular matrix with known left null vector [1, -1, 0].
	a := FromRows([][]float64{
		{1, 2, 3},
		{1, 2, 3},
		{0, 1, 4},
	})
	w, err := LeftNullVector(a, 200, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	res := a.MulVecTInto(NewVec(a.Cols), w)
	if res.NormInf() > 1e-8 {
		t.Errorf("wᵀA = %v, want ~0", res)
	}
}

func TestCNullVector(t *testing.T) {
	// Complex singular matrix: second row = i · first row.
	a := NewCMat(2, 2)
	a.Set(0, 0, 1+1i)
	a.Set(0, 1, 2)
	a.Set(1, 0, complex(0, 1)*(1+1i))
	a.Set(1, 1, 2i)
	v, err := CNullVector(a, 200, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	res := a.MulVec(v)
	if res.NormInf() > 1e-7 {
		t.Errorf("A·v = %v, want ~0", res)
	}
}
