package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	sum := NewVec(3)
	sum.Add(a, b)
	if sum[0] != 5 || sum[1] != 7 || sum[2] != 9 {
		t.Errorf("Add = %v", sum)
	}
	diff := NewVec(3)
	diff.Sub(b, a)
	if diff[0] != 3 || diff[1] != 3 || diff[2] != 3 {
		t.Errorf("Sub = %v", diff)
	}
	if d := a.Dot(b); d != 32 {
		t.Errorf("Dot = %g, want 32", d)
	}
	c := a.Clone()
	c.AXPY(2, b)
	if c[0] != 9 || c[1] != 12 || c[2] != 15 {
		t.Errorf("AXPY = %v", c)
	}
	if a.NormInf() != 3 {
		t.Errorf("NormInf = %g", a.NormInf())
	}
	if idx := (Vec{1, -7, 3}).MaxAbsIndex(); idx != 1 {
		t.Errorf("MaxAbsIndex = %d", idx)
	}
}

func TestNorm2OverflowGuard(t *testing.T) {
	v := Vec{1e200, 1e200}
	got := v.Norm2()
	want := 1e200 * 1.4142135623730951
	if !almostEq(got/want, 1, 1e-12) {
		t.Errorf("Norm2 = %g, want %g", got, want)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a, b := randomMat(r, n), randomMat(r, n)
		v := NewVec(n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		// (A·B)·v == A·(B·v)
		lhs := a.Mul(b).MulVec(v)
		rhs := a.MulVec(b.MulVec(v))
		lhs.Sub(lhs, rhs)
		return lhs.NormInf() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := NewMat(3, 5)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	tt := a.T().T()
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("transpose is not an involution")
		}
	}
}

func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := NewMat(4, 6)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	v := NewVec(4)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	got := a.MulVecTInto(NewVec(6), v)
	want := a.T().MulVec(v)
	got.Sub(got, want)
	if got.NormInf() > 1e-14 {
		t.Errorf("MulVecTInto mismatch: %g", got.NormInf())
	}
}

func TestRowColViews(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	row := m.Row(1)
	row[0] = 30 // shared storage
	if m.At(1, 0) != 30 {
		t.Error("Row must be a view")
	}
	col := m.Col(1)
	col[0] = 99 // copy
	if m.At(0, 1) == 99 {
		t.Error("Col must be a copy")
	}
	m.SetCol(0, Vec{7, 8})
	if m.At(0, 0) != 7 || m.At(1, 0) != 8 {
		t.Error("SetCol failed")
	}
}
