package transient_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/transient"
)

// TestScratchReuseMatchesFreshRuns pins the warm-scratch contract: repeated
// runs through one Scratch produce bit-identical trajectories and
// sensitivities to independent cold runs, and each Result owns its storage —
// a later run through the same scratch must not disturb an earlier Result.
func TestScratchReuseMatchesFreshRuns(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	sc := transient.NewScratch(sys)
	ctx := context.Background()
	for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2, transient.Trap} {
		opt := transient.Options{Method: m, Step: tau / 500, Sensitivity: true}
		cold, err := transient.RunCtx(ctx, sys, linalg.Vec{0}, 0, 2*tau, opt)
		if err != nil {
			t.Fatalf("%v cold: %v", m, err)
		}
		warm, err := sc.Run(ctx, linalg.Vec{0}, 0, 2*tau, opt)
		if err != nil {
			t.Fatalf("%v warm: %v", m, err)
		}
		if len(cold.X) != len(warm.X) {
			t.Fatalf("%v: %d vs %d recorded points", m, len(cold.X), len(warm.X))
		}
		for k := range cold.X {
			for j := range cold.X[k] {
				if cold.X[k][j] != warm.X[k][j] {
					t.Fatalf("%v: X[%d][%d] differs: %x vs %x", m, k, j, cold.X[k][j], warm.X[k][j])
				}
			}
		}
		for j := range cold.Sens.Data {
			if cold.Sens.Data[j] != warm.Sens.Data[j] {
				t.Fatalf("%v: sensitivity differs at flat index %d", m, j)
			}
		}
	}
}

// TestResultSurvivesScratchReuse guards the arena ownership rule: Result
// trajectories are carved from a per-run arena, so running the scratch again
// must leave prior results untouched.
func TestResultSurvivesScratchReuse(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	sc := transient.NewScratch(sys)
	ctx := context.Background()
	opt := transient.Options{Method: transient.Trap, Step: tau / 300, Sensitivity: true}
	first, err := sc.Run(ctx, linalg.Vec{0}, 0, tau, opt)
	if err != nil {
		t.Fatal(err)
	}
	snapT := append([]float64(nil), first.T...)
	snapX := make([]linalg.Vec, len(first.X))
	for i, v := range first.X {
		snapX[i] = v.Clone()
	}
	snapS := first.Sens.Clone()
	// A different trajectory through the same scratch: start from 1 V.
	if _, err := sc.Run(ctx, linalg.Vec{1}, 0, tau, opt); err != nil {
		t.Fatal(err)
	}
	for i := range snapT {
		if first.T[i] != snapT[i] {
			t.Fatalf("T[%d] changed after scratch reuse", i)
		}
		for j := range snapX[i] {
			if first.X[i][j] != snapX[i][j] {
				t.Fatalf("X[%d][%d] changed after scratch reuse", i, j)
			}
		}
	}
	for j := range snapS.Data {
		if first.Sens.Data[j] != snapS.Data[j] {
			t.Fatalf("Sens changed after scratch reuse (flat index %d)", j)
		}
	}
}

// TestPerWorkerScratchesAreIndependent runs one warm Scratch per worker
// against the shared System, concurrently and repeatedly. Under -race this
// proves the scratches share no buffers with each other or with the shared
// immutable System; the bit-identity check proves it numerically.
func TestPerWorkerScratchesAreIndependent(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	ctx := context.Background()
	opts := []transient.Options{
		{Method: transient.BE, Step: tau / 400, Sensitivity: true},
		{Method: transient.Trap, Step: tau / 500, Sensitivity: true},
		{Method: transient.Gear2, Step: tau / 600, Sensitivity: true},
		{Method: transient.Trap, Step: tau / 700, Sensitivity: true},
	}
	ref := make([]*transient.Result, len(opts))
	for i, o := range opts {
		res, err := transient.RunCtx(ctx, sys, linalg.Vec{0}, 0, 2*tau, o)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		ref[i] = res
	}

	got := make([]*transient.Result, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func(i int, o transient.Options) {
			defer wg.Done()
			sc := transient.NewScratch(sys) // per-worker scratch
			// Two consecutive runs per worker: the second rides entirely on
			// warm (reused) buffers while the neighbors are mid-flight.
			if _, err := sc.Run(ctx, linalg.Vec{0}, 0, tau/4, o); err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = sc.Run(ctx, linalg.Vec{0}, 0, 2*tau, o)
		}(i, o)
	}
	wg.Wait()

	for i := range opts {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		a, b := ref[i], got[i]
		if len(a.X) != len(b.X) || a.Steps != b.Steps {
			t.Fatalf("worker %d: trajectory shape differs", i)
		}
		for k := range a.X {
			for j := range a.X[k] {
				if a.X[k][j] != b.X[k][j] {
					t.Fatalf("worker %d: X[%d][%d] differs: %x vs %x", i, k, j, a.X[k][j], b.X[k][j])
				}
			}
		}
		for j := range a.Sens.Data {
			if a.Sens.Data[j] != b.Sens.Data[j] {
				t.Fatalf("worker %d: sensitivity differs at flat index %d", i, j)
			}
		}
	}
}

// TestScratchBytesPinnedFromBuffers pins ScratchBytesPinned to the buffers
// a run allocates, 8 bytes per float64. A scratch is a one-lane batch
// scratch, and a K-lane one pins its lane-major state (x, x1, prev, prev2,
// f0, the lane times tl and tl1, the Jacobian cache and each lane's scaled
// C on the batch pattern), the solve vectors resid and dxv, the lanes'
// shared matrix values, one factorization per lane (n² dense, nnz + fill-in
// sparse) and, in sensitivity runs, the propagator's right-hand matrix
// (dense with a spare column for the step derivative's term) and an
// n×(n+1) product, and for Gear2 a second one. A scratch reports each byte
// once, so a second run through it adds nothing.
func TestScratchBytesPinnedFromBuffers(t *testing.T) {
	arr, x0 := buildCoupled(t)
	sys, T := arr.Sys, 1/arr.EstimatedF0()
	n, nnz := int64(sys.N), int64(sys.SparsePattern().NNZ())
	for _, c := range []struct {
		opt  transient.Options
		want func(fill int64) int64 // fill: the fill-in the run's symbolic analyses reported in all
	}{
		{transient.Options{Method: transient.Trap, Backend: linalg.BackendDense},
			func(int64) int64 { return 7*n + 2 + 2*nnz + n*n + n*n + 2*n*(n+1) }},
		{transient.Options{Method: transient.BE, Backend: linalg.BackendSparse},
			func(fill int64) int64 { return 7*n + 2 + 2*nnz + nnz + nnz + fill + nnz + n*(n+1) }},
		{transient.Options{Method: transient.Gear2, Backend: linalg.BackendDense},
			func(int64) int64 { return 7*n + 2 + 2*nnz + n*n + n*n + 3*n*(n+1) }},
	} {
		c.opt.Step, c.opt.Sensitivity = T/256, true
		m := diag.New()
		ctx := diag.WithMetrics(context.Background(), m)
		sc := transient.NewScratch(sys)
		for run := 0; run < 2; run++ {
			if _, err := sc.Run(ctx, x0, 0, T/8, c.opt); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := m.Get(diag.ScratchBytesPinned), 8*c.want(m.Get(diag.SparseFillIns)); got != want {
			t.Errorf("%v %v: %d bytes pinned, want %d", c.opt.Backend, c.opt.Method, got, want)
		}
	}

	const K = 4
	b, err := circuit.NewBatch(cornerRings(t, K))
	if err != nil {
		t.Fatal(err)
	}
	n, nnz = int64(b.N), int64(b.Pattern().NNZ())
	h := []float64{2e-7, 2.1e-7, 2.2e-7, 2.3e-7}
	m := diag.New()
	sc := transient.NewBatchScratch(b)
	for run := 0; run < 2; run++ {
		if _, err := sc.Run(diag.WithMetrics(context.Background(), m), kickedStart(K, b.N),
			transient.BatchOptions{Options: transient.Options{Method: transient.Trap, Sensitivity: true}, H: h, T1: laneEnds(h, 20)}); err != nil {
			t.Fatal(err)
		}
	}
	state := 5*K*n + 2*K + 2*K*nnz + 2*n // x, x1, prev, prev2, f0; tl, tl1; jcache, scaled C; resid, dxv
	lanes := n*n + K*n*n                 // shared values; one factorization per lane
	if got, want := m.Get(diag.ScratchBytesPinned), 8*(state+lanes+2*n*(n+1)); got != want {
		t.Errorf("batch: %d bytes pinned, want %d", got, want)
	}
}
