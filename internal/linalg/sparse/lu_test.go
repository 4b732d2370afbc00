package sparse

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// randSparse builds a random n×n matrix with a zero-free diagonal and about
// fill off-diagonal density, mimicking a circuit Jacobian: structurally
// symmetric pattern, diagonally weighted values.
func randSparse(rng *rand.Rand, n int, fill float64) *CSC {
	var rows, cols []int
	for i := 0; i < n; i++ {
		rows = append(rows, i)
		cols = append(cols, i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < fill {
				rows = append(rows, i, j)
				cols = append(cols, j, i)
			}
		}
	}
	m := NewCSC(PatternFromEntries(n, rows, cols))
	for j := 0; j < n; j++ {
		for k := m.P.ColPtr[j]; k < m.P.ColPtr[j+1]; k++ {
			if m.P.Rows[k] == j {
				m.Val[k] = 4 + rng.Float64() // dominant-ish diagonal
			} else {
				m.Val[k] = rng.NormFloat64()
			}
		}
	}
	return m
}

func maxAbsDiff(a, b linalg.Vec) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestLUMatchesDenseRandom cross-checks assemble→factor→solve round trips
// against the dense reference over random sparsity patterns and sizes.
func TestLUMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		fill := 0.05 + 0.3*rng.Float64()
		a := randSparse(rng, n, fill)
		dense := a.ToDense(nil)

		f, err := Factorize(a)
		if err != nil {
			t.Fatalf("trial %d: sparse factorize: %v", trial, err)
		}
		df, err := linalg.Factorize(dense)
		if err != nil {
			t.Fatalf("trial %d: dense factorize: %v", trial, err)
		}
		b := linalg.NewVec(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs := f.SolveInto(linalg.NewVec(n), b)
		xd := df.Solve(b)
		if d := maxAbsDiff(xs, xd); d > 1e-12 {
			t.Fatalf("trial %d (n=%d fill=%.2f): sparse vs dense solve differ by %g", trial, n, fill, d)
		}
		// Residual check: A·x − b.
		r := linalg.NewVec(n)
		a.MulVecInto(r, xs)
		if d := maxAbsDiff(r, b); d > 1e-11 {
			t.Fatalf("trial %d: residual %g", trial, d)
		}
	}
}

// TestRefactorMatchesFresh changes values on a fixed pattern and checks the
// warm refactor agrees with a from-scratch factorization bit for bit.
func TestRefactorMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	a := randSparse(rng, n, 0.15)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.ReusedSymbolic() {
		t.Fatal("first factorization cannot reuse symbolic state")
	}
	for trial := 0; trial < 10; trial++ {
		// New values, same pattern.
		for k := range a.Val {
			if a.P.Rows[k] == columnOf(a.P, k) {
				a.Val[k] = 4 + rng.Float64()
			} else {
				a.Val[k] = rng.NormFloat64()
			}
		}
		if err := f.FactorizeInto(a); err != nil {
			t.Fatalf("trial %d: refactor: %v", trial, err)
		}
		if !f.ReusedSymbolic() {
			t.Fatalf("trial %d: refactor did not reuse symbolic state", trial)
		}
		fresh, err := Factorize(a)
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		b := linalg.NewVec(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xw := f.SolveInto(linalg.NewVec(n), b)
		xf := fresh.SolveInto(linalg.NewVec(n), b)
		for i := range xw {
			if xw[i] != xf[i] {
				t.Fatalf("trial %d: refactor and fresh factorization disagree at %d: %g vs %g", trial, i, xw[i], xf[i])
			}
		}
	}
}

// columnOf returns the column owning flat value index k (test helper).
func columnOf(p *Pattern, k int) int {
	for j := 0; j < p.N; j++ {
		if k < p.ColPtr[j+1] {
			return j
		}
	}
	return -1
}

// TestSolveMatMatchesDense checks the multi-RHS solve used by sensitivity
// propagation against the dense reference.
func TestSolveMatMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	a := randSparse(rng, n, 0.2)
	dense := a.ToDense(nil)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	df, err := linalg.Factorize(dense)
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewMat(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	xs := f.SolveMatInto(linalg.NewMat(n, n), b)
	xd := df.SolveMat(b)
	for i := range xs.Data {
		if d := math.Abs(xs.Data[i] - xd.Data[i]); d > 1e-11 {
			t.Fatalf("SolveMat entry %d differs by %g", i, d)
		}
	}
}

// TestMulMatMatchesDense checks the sparse×dense product used by the Gear2
// and θ-method sensitivity combination.
func TestMulMatMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 17
	a := randSparse(rng, n, 0.25)
	dense := a.ToDense(nil)
	b := linalg.NewMat(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := a.MulMatInto(linalg.NewMat(n, n), b)
	want := linalg.NewMat(n, n)
	dense.MulInto(want, b)
	for i := range got.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12 {
			t.Fatalf("MulMat entry %d differs by %g", i, d)
		}
	}
}

// TestSingularWrapsSentinel: a structurally/numerically singular matrix must
// surface the shared linalg.ErrSingular sentinel, so the public
// phlogon.ErrSingularJacobian taxonomy matches sparse failures too.
func TestSingularWrapsSentinel(t *testing.T) {
	// 2×2 with an exactly dependent second row.
	m := NewCSC(PatternFromEntries(2, []int{0, 0, 1, 1}, []int{0, 1, 0, 1}))
	m.Val[0], m.Val[1], m.Val[2], m.Val[3] = 1, 1, 2, 2
	if _, err := Factorize(m); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("singular matrix: got %v, want errors.Is linalg.ErrSingular", err)
	}
	// Zero matrix.
	z := NewCSC(PatternFromEntries(2, []int{0, 1}, []int{0, 1}))
	if _, err := Factorize(z); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("zero matrix: got %v, want errors.Is linalg.ErrSingular", err)
	}
}

// TestFillInCounter: fill-in is non-negative and the tridiagonal case has
// exactly zero fill under any reasonable ordering.
func TestFillInCounter(t *testing.T) {
	n := 12
	var rows, cols []int
	for i := 0; i < n; i++ {
		rows, cols = append(rows, i), append(cols, i)
		if i+1 < n {
			rows, cols = append(rows, i, i+1), append(cols, i+1, i)
		}
	}
	m := NewCSC(PatternFromEntries(n, rows, cols))
	for k := range m.Val {
		if m.P.Rows[k] == columnOf(m.P, k) {
			m.Val[k] = 3
		} else {
			m.Val[k] = -1
		}
	}
	f, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.FillIn() != 0 {
		t.Fatalf("tridiagonal fill-in = %d, want 0", f.FillIn())
	}
}

// TestPatternIndexOf exercises the stamp lookup.
func TestPatternIndexOf(t *testing.T) {
	p := PatternFromEntries(3, []int{0, 2, 1, 1}, []int{0, 0, 1, 2})
	if p.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", p.NNZ())
	}
	if k := p.IndexOf(2, 0); k < 0 || p.Rows[k] != 2 {
		t.Fatalf("IndexOf(2,0) = %d", k)
	}
	if k := p.IndexOf(2, 1); k != -1 {
		t.Fatalf("IndexOf(2,1) = %d, want -1", k)
	}
	// Duplicate entries merge.
	dup := PatternFromEntries(2, []int{0, 0, 1}, []int{0, 0, 1})
	if dup.NNZ() != 2 {
		t.Fatalf("dup nnz = %d, want 2", dup.NNZ())
	}
}

// TestAnalysisSharedPerPattern factors one fresh pattern from several
// goroutines at once: every LU binds the same symbolic analysis, computed
// once, and each solve is bit-identical to a solo factorization on a copy
// of the pattern.
func TestAnalysisSharedPerPattern(t *testing.T) {
	a := randSparse(rand.New(rand.NewSource(5)), 40, 0.1)
	pat := &Pattern{N: a.P.N, ColPtr: a.P.ColPtr, Rows: a.P.Rows} // not yet analyzed
	b := linalg.NewVec(pat.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	solo, err := Factorize(&CSC{P: &Pattern{N: pat.N, ColPtr: pat.ColPtr, Rows: pat.Rows}, Val: a.Val})
	if err != nil {
		t.Fatal(err)
	}
	want := solo.SolveInto(linalg.NewVec(pat.N), b)

	const workers = 4
	lus := make([]*LU, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range lus {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lus[w], errs[w] = Factorize(&CSC{P: pat, Val: append([]float64(nil), a.Val...)})
		}(w)
	}
	wg.Wait()
	for w, f := range lus {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if f.sym != lus[0].sym {
			t.Fatalf("worker %d bound an analysis of its own", w)
		}
		got := f.SolveInto(linalg.NewVec(pat.N), b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("worker %d: x[%d] = %g, solo %g", w, i, got[i], want[i])
			}
		}
	}
}
