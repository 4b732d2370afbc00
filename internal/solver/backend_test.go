package solver_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

// TestDCOperatingPointBackendsAgree solves the same DC problem through the
// dense and the sparse escalation ladders and requires matching operating
// points: both backends stamp identical device equations, so they must find
// the same equilibrium to factorization roundoff.
func TestDCOperatingPointBackendsAgree(t *testing.T) {
	arr, err := ringosc.BuildArray(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	xd, err := solver.DCOperatingPointBackendCtx(ctx, arr.Sys, nil, 0, linalg.BackendDense)
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	xs, err := solver.DCOperatingPointBackendCtx(ctx, arr.Sys, nil, 0, linalg.BackendSparse)
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	for i := range xd {
		if d := math.Abs(xd[i] - xs[i]); d > 1e-8 {
			t.Fatalf("operating points differ at node %d by %g (%g vs %g)", i, d, xd[i], xs[i])
		}
	}
	// The auto path on this small circuit must be exactly the dense result.
	xa, err := solver.DCOperatingPointCtx(ctx, arr.Sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xd {
		if xa[i] != xd[i] {
			t.Fatalf("auto and dense DC differ at node %d", i)
		}
	}
}

// TestSolveSparseWithScratchReuse re-runs a sparse Newton solve through one
// warm scratch and requires bit-identical iterates: the symbolic
// factorization is computed once and the numeric refactor must reproduce the
// cold factorization exactly (the solver-level refactor-correctness proof).
func TestSolveSparseWithScratchReuse(t *testing.T) {
	arr, err := ringosc.BuildArray(2)
	if err != nil {
		t.Fatal(err)
	}
	ws := arr.Sys.NewWorkspace()
	pat := arr.Sys.SparsePattern()
	fn := func(x linalg.Vec, f linalg.Vec, sj *sparse.CSC) {
		if sj == nil {
			ws.EvalF(x, 0, f)
			return
		}
		ws.EvalFJSparse(x, 0, f, sj)
	}
	x0 := linalg.NewVec(arr.Sys.N)
	sc := solver.NewSparseScratch(pat)
	x1, st1, err := solver.SolveSparseWith(context.Background(), fn, pat, x0, solver.Options{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Converged {
		t.Fatal("sparse Newton did not converge")
	}
	got1 := x1.Clone()
	x2, st2, err := solver.SolveSparseWith(context.Background(), fn, pat, x0, solver.Options{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Iterations != st1.Iterations {
		t.Fatalf("warm re-solve took %d iterations, cold took %d", st2.Iterations, st1.Iterations)
	}
	for i := range got1 {
		if x2[i] != got1[i] {
			t.Fatalf("warm re-solve not bit-identical at node %d", i)
		}
	}
}

// TestScratchBytesPinnedFromBuffers pins ScratchBytesPinned to the buffers
// a solve allocates, 8 bytes per float64: five n-vectors, the Jacobian (n²
// dense, nnz sparse) and its factors (n², or nnz + fill-in), reported once
// however often the scratch solves.
func TestScratchBytesPinnedFromBuffers(t *testing.T) {
	arr, err := ringosc.BuildArray(2)
	if err != nil {
		t.Fatal(err)
	}
	ws, pat := arr.Sys.NewWorkspace(), arr.Sys.SparsePattern()
	n, nnz := int64(arr.Sys.N), int64(pat.NNZ())
	x0 := linalg.NewVec(arr.Sys.N)
	m := diag.New()
	ctx := diag.WithMetrics(context.Background(), m)
	dense := func(x linalg.Vec, f linalg.Vec, j *linalg.Mat) { ws.EvalScaled(x, 0, f, j, 1, 1) }
	sc := solver.NewScratch(arr.Sys.N)
	for run := 0; run < 2; run++ {
		if _, _, err := solver.SolveWith(ctx, dense, x0, solver.Options{}, sc); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := m.Get(diag.ScratchBytesPinned), 8*(5*n+2*n*n); got != want {
		t.Errorf("dense: %d bytes pinned, want %d", got, want)
	}

	m = diag.New()
	ctx = diag.WithMetrics(context.Background(), m)
	sparseFn := func(x linalg.Vec, f linalg.Vec, sj *sparse.CSC) { ws.EvalScaledSparse(x, 0, f, sj, 1, 1) }
	sc = solver.NewSparseScratch(pat)
	for run := 0; run < 2; run++ {
		if _, _, err := solver.SolveSparseWith(ctx, sparseFn, pat, x0, solver.Options{}, sc); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := m.Get(diag.ScratchBytesPinned), 8*(5*n+2*nnz+m.Get(diag.SparseFillIns)); got != want {
		t.Errorf("sparse: %d bytes pinned, want %d", got, want)
	}
}
