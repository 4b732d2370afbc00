package transient_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/transient"
)

// TestConcurrentRunsOnSharedSystem certifies the analysis-engine refactor's
// core claim: any number of transient integrations — including sensitivity
// propagation — may run against one shared immutable System, and each
// produces bit-identical results to a serial run. Exercised under -race by
// the tier-1+ gate.
func TestConcurrentRunsOnSharedSystem(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	methods := []transient.Method{transient.BE, transient.Trap, transient.Gear2, transient.Trap}
	opts := make([]transient.Options, len(methods))
	for i, m := range methods {
		opts[i] = transient.Options{
			Method:      m,
			Step:        tau / (1000 + 100*float64(i)),
			Sensitivity: true,
		}
	}

	// Serial references.
	ref := make([]*transient.Result, len(opts))
	for i, o := range opts {
		res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 2*tau, o)
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
			got[i], errs[i] = transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 2*tau, o)
		}(i, o)
	}
	wg.Wait()

	for i := range opts {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		a, b := ref[i], got[i]
		if len(a.X) != len(b.X) || a.Steps != b.Steps {
			t.Fatalf("run %d: trajectory shape differs (%d/%d steps vs %d/%d)",
				i, len(a.X), a.Steps, len(b.X), b.Steps)
		}
		for k := range a.X {
			for j := range a.X[k] {
				if a.X[k][j] != b.X[k][j] {
					t.Fatalf("run %d: X[%d][%d] differs: %g vs %g", i, k, j, a.X[k][j], b.X[k][j])
				}
			}
		}
		if a.Sens != nil {
			for j := range a.Sens.Data {
				if a.Sens.Data[j] != b.Sens.Data[j] {
					t.Fatalf("run %d: sensitivity differs at flat index %d", i, j)
				}
			}
		}
	}
}

func TestRunCtxCanceledBeforeStart(t *testing.T) {
	sys := rcCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []transient.Method{transient.Trap, transient.Gear2} {
		res, err := transient.RunCtx(ctx, sys, linalg.Vec{0}, 0, 1e-3, transient.Options{
			Method: m, Step: 1e-7,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", m, err)
		}
		// Gear2 takes its BE bootstrap step before the loop's first check;
		// either way the run must stop essentially immediately.
		if res == nil || res.Steps > 1 {
			t.Fatalf("%v: %d steps taken on a canceled context", m, res.Steps)
		}
	}
}

func TestRunCtxCancellationStopsMidRun(t *testing.T) {
	sys := rcCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from a monitoring goroutine once some progress is visible: run a
	// long integration and cancel almost immediately.
	done := make(chan struct{})
	go func() {
		cancel()
		close(done)
	}()
	<-done
	res, err := transient.RunCtx(ctx, sys, linalg.Vec{0}, 0, 1.0 /* 10⁹ steps if not canceled */, transient.Options{
		Method: transient.Trap, Step: 1e-9,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Steps > 10 {
		t.Fatalf("%d steps taken after cancellation", res.Steps)
	}
}

// TestConcurrentSparseRunsShareAnalysis runs sparse integrations of one
// freshly built adder concurrently, so their first factorizations race to
// the System's pattern and sparse plan and to the pattern's one symbolic
// analysis, and requires each to be bit-identical to a solo run on an
// adder built apart. Exercised under -race by the tier-1+ gate.
func TestConcurrentSparseRunsShareAnalysis(t *testing.T) {
	shared, x0, h := oracleAdder(t)
	solo, _, _ := oracleAdder(t)
	opts := []transient.Options{
		{Method: transient.Trap, Step: h},
		{Method: transient.BE, Step: h, Sensitivity: true},
		{Method: transient.Gear2, Step: h},
		{Method: transient.Trap, Step: h / 2, Sensitivity: true},
	}
	got := make([]*transient.Result, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i := range opts {
		opts[i].Backend = linalg.BackendSparse
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = transient.RunCtx(context.Background(), shared, x0, 0, 200*h, opts[i])
		}(i)
	}
	wg.Wait()
	for i, o := range opts {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		ref, err := transient.RunCtx(context.Background(), solo, x0, 0, 200*h, o)
		if err != nil {
			t.Fatalf("solo run %d: %v", i, err)
		}
		if len(ref.X) != len(got[i].X) {
			t.Fatalf("run %d: %d recorded points, solo %d", i, len(got[i].X), len(ref.X))
		}
		for k := range ref.X {
			requireSameBits(t, k, got[i].X[k], ref.X[k])
		}
		if ref.Sens != nil {
			requireSameBits(t, len(ref.X)-1, got[i].Sens.Data, ref.Sens.Data)
		}
	}
}
