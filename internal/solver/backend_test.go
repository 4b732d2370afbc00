package solver_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/diag"
	"repro/internal/linalg"
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
	xd, err := solver.DCOperatingPointBackend(ctx, arr.Sys, nil, 0, linalg.BackendDense)
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	xs, err := solver.DCOperatingPointBackend(ctx, arr.Sys, nil, 0, linalg.BackendSparse)
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

// TestScratchBytesPinnedFromBuffers pins ScratchBytesPinned to the buffers
// a DC solve allocates, 8 bytes per float64: five n-vectors, the Jacobian
// values on the pattern (nnz), the Newton matrix (n² dense, nnz sparse) and
// its factors (n², or nnz + fill-in), reported once however many Newton
// solves the escalation ladder runs.
func TestScratchBytesPinnedFromBuffers(t *testing.T) {
	arr, err := ringosc.BuildArray(2)
	if err != nil {
		t.Fatal(err)
	}
	n, nnz := int64(arr.Sys.N), int64(arr.Sys.SparsePattern().NNZ())
	for _, be := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
		m := diag.New()
		if _, err := solver.DCOperatingPointBackend(diag.WithMetrics(context.Background(), m), arr.Sys, nil, 0, be); err != nil {
			t.Fatal(err)
		}
		want := 8 * (5*n + nnz + 2*n*n)
		if be == linalg.BackendSparse {
			want = 8 * (5*n + 3*nnz + m.Get(diag.SparseFillIns))
		}
		if got := m.Get(diag.ScratchBytesPinned); got != want {
			t.Errorf("%v: %d bytes pinned, want %d", be, got, want)
		}
	}
}
