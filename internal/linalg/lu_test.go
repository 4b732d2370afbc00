package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMat(rng *rand.Rand, n int) *Mat {
	m := NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Diagonal boost keeps random systems comfortably nonsingular.
	for i := 0; i < n; i++ {
		m.Addf(i, i, float64(n))
	}
	return m
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := Vec{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := Vec{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomMat(r, n)
		b := NewVec(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		res.Sub(res, b)
		return res.NormInf() < 1e-9*(1+b.NormInf())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSolveTransposeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomMat(r, n)
		b := NewVec(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		fac, err := Factorize(a)
		if err != nil {
			return false
		}
		x := fac.SolveTInto(NewVec(n), b)
		res := a.T().MulVec(x)
		res.Sub(res, b)
		return res.NormInf() < 1e-9*(1+b.NormInf())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLUDet(t *testing.T) {
	a := FromRows([][]float64{
		{4, 3},
		{6, 3},
	})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -6, 1e-12) {
		t.Errorf("det = %g, want -6", f.Det())
	}
}

func TestLUSingularDetected(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Factorize(a); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randomMat(r, 6)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	id := Eye(6)
	prod.AddScaled(-1, id)
	if prod.NormInf() > 1e-10 {
		t.Errorf("A·A⁻¹ deviates from I by %g", prod.NormInf())
	}
}

func TestSolveMatMatchesColumnSolves(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := randomMat(r, 5)
	b := NewMat(5, 3)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveMat(b)
	for j := 0; j < 3; j++ {
		col := f.Solve(b.Col(j))
		for i := 0; i < 5; i++ {
			if !almostEq(x.At(i, j), col[i], 1e-13) {
				t.Fatalf("SolveMat(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestComplexLUSolve(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		r := rand.New(rand.NewSource(seed))
		a := NewCMat(n, n)
		for i := range a.Data {
			a.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		for i := 0; i < n; i++ {
			a.Addf(i, i, complex(float64(n), 0))
		}
		b := NewCVec(n)
		for i := range b {
			b[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		fac, err := CFactorize(a)
		if err != nil {
			return false
		}
		x := fac.Solve(b)
		res := a.MulVec(x)
		for i := range res {
			res[i] -= b[i]
		}
		return res.NormInf() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLUFactorize32(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	a := randomMat(r, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve32(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	a := randomMat(r, 32)
	f, err := Factorize(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := NewVec(32)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Solve(rhs)
	}
}
