package linalg

import (
	"math/rand"
	"testing"
)

// bitIdentical fails unless a and b match exactly (no tolerance): the -Into
// variants promise the same arithmetic as their allocating counterparts,
// operation for operation.
func bitIdentical(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d differs: %x vs %x", what, i, a[i], b[i])
		}
	}
}

func TestFactorizeIntoSolveIntoZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randomMat(r, 24)
	b := NewVec(24)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	var lu LU
	dst := NewVec(24)
	// Warm up: the first factorization sizes the pinned buffers.
	if err := lu.FactorizeInto(a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := lu.FactorizeInto(a); err != nil {
			t.Fatal(err)
		}
		lu.SolveInto(dst, b)
	})
	if allocs != 0 {
		t.Errorf("warm FactorizeInto+SolveInto allocated %.0f times per run, want 0", allocs)
	}
	if !lu.ReusedBuffers() {
		t.Error("ReusedBuffers() = false after a warm same-size refactorization")
	}
}

func TestSolveIntoMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 7, 24} {
		a := randomMat(r, n)
		b := NewVec(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		lu, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		want := lu.Solve(b)
		got := lu.SolveInto(NewVec(n), b)
		bitIdentical(t, "SolveInto", got, want)

		wantT := lu.SolveTBuf(NewVec(n), b, NewVec(n))
		gotT := lu.SolveTInto(NewVec(n), b)
		bitIdentical(t, "SolveTInto", gotT, wantT)
	}
}

func TestSolveMatIntoMatchesSolveMat(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randomMat(r, 9)
	rhs := NewMat(9, 5)
	for i := range rhs.Data {
		rhs.Data[i] = r.NormFloat64()
	}
	lu, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	want := lu.SolveMat(rhs)
	got := lu.SolveMatInto(NewMat(9, 5), rhs)
	bitIdentical(t, "SolveMatInto", got.Data, want.Data)
}

func TestMulIntoMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := randomMat(r, 8)
	b := randomMat(r, 8)
	want := a.Mul(b)
	got := a.MulInto(NewMat(8, 8), b)
	bitIdentical(t, "MulInto", got.Data, want.Data)
	allocs := testing.AllocsPerRun(20, func() { a.MulInto(got, b) })
	if allocs != 0 {
		t.Errorf("MulInto allocated %.0f times per run, want 0", allocs)
	}
}

func TestSolveIntoAliasPanics(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 2}})
	lu, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := Vec{1, 2}
	defer func() {
		if recover() == nil {
			t.Error("SolveInto(b, b) did not panic on aliasing")
		}
	}()
	lu.SolveInto(b, b)
}

func TestFactorizeIntoResizes(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	var lu LU
	for _, n := range []int{3, 6, 2} {
		a := randomMat(r, n)
		if err := lu.FactorizeInto(a); err != nil {
			t.Fatal(err)
		}
		if lu.ReusedBuffers() {
			t.Errorf("n=%d: ReusedBuffers() = true across a size change", n)
		}
		b := NewVec(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := lu.SolveInto(NewVec(n), b)
		res := a.MulVec(x)
		res.Sub(res, b)
		if res.NormInf() > 1e-9*(1+b.NormInf()) {
			t.Errorf("n=%d: residual %g after resize", n, res.NormInf())
		}
	}
}
