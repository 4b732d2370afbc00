package transient_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// buildCoupled returns a small coupled-ring system (6 nodes, dense under
// Auto, so sparse runs only when forced, which is exactly what these tests
// do).
func buildCoupled(t *testing.T) (*ringosc.Array, linalg.Vec) {
	t.Helper()
	arr, err := ringosc.BuildArray(2)
	if err != nil {
		t.Fatal(err)
	}
	return arr, arr.KickStart()
}

// TestSparseBackendMatchesDense integrates the same circuit on both backends
// and requires the trajectories to agree far below any physical tolerance:
// the backends share every piece of arithmetic except the linear solve, so
// disagreement beyond factorization roundoff is a stamping bug.
func TestSparseBackendMatchesDense(t *testing.T) {
	arr, x0 := buildCoupled(t)
	T := 1 / arr.EstimatedF0()
	for _, method := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		opt := transient.Options{Method: method, Step: T / 256, Sensitivity: true}
		dOpt, sOpt := opt, opt
		dOpt.Backend = linalg.BackendDense
		sOpt.Backend = linalg.BackendSparse
		dres, err := transient.Run(arr.Sys, x0, 0, T/4, dOpt)
		if err != nil {
			t.Fatalf("%v dense: %v", method, err)
		}
		sres, err := transient.Run(arr.Sys, x0, 0, T/4, sOpt)
		if err != nil {
			t.Fatalf("%v sparse: %v", method, err)
		}
		if dres.Steps != sres.Steps {
			t.Fatalf("%v: step counts differ: %d vs %d", method, dres.Steps, sres.Steps)
		}
		df, sf := dres.Final(), sres.Final()
		for i := range df {
			if d := math.Abs(df[i] - sf[i]); d > 1e-9 {
				t.Fatalf("%v: final state differs at node %d by %g", method, i, d)
			}
		}
		for i := range dres.Sens.Data {
			if d := math.Abs(dres.Sens.Data[i] - sres.Sens.Data[i]); d > 1e-7 {
				t.Fatalf("%v: monodromy differs at flat %d by %g", method, i, d)
			}
		}
	}
}

// TestSparseBackendReusesScratch runs dense and sparse alternately through
// ONE Scratch and checks both stay correct — the backend branch must not
// poison the other's pinned state, and results must be bit-stable under
// scratch reuse.
func TestSparseBackendReusesScratch(t *testing.T) {
	arr, x0 := buildCoupled(t)
	T := 1 / arr.EstimatedF0()
	sc := transient.NewScratch(arr.Sys)
	run := func(b linalg.Backend) linalg.Vec {
		res, err := sc.Run(context.Background(), x0, 0, T/8, transient.Options{
			Method: transient.Trap, Step: T / 256, Backend: b,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Final().Clone()
	}
	d1 := run(linalg.BackendDense)
	s1 := run(linalg.BackendSparse)
	d2 := run(linalg.BackendDense)
	s2 := run(linalg.BackendSparse)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dense not bit-stable under scratch reuse at node %d", i)
		}
		if s1[i] != s2[i] {
			t.Fatalf("sparse not bit-stable under scratch reuse at node %d", i)
		}
		if d := math.Abs(d1[i] - s1[i]); d > 1e-9 {
			t.Fatalf("backends differ at node %d by %g", i, d)
		}
	}
}

// autoCircuit is a circuit of the dense-against-sparse crossover
// (BenchmarkIterationLU) with a start state and a step.
type autoCircuit struct {
	name string
	sys  *circuit.System
	x0   linalg.Vec
	h    float64
}

// autoCircuits builds the crossover's circuits, densest first.
func autoCircuits(t *testing.T) []autoCircuit {
	t.Helper()
	var cs []autoCircuit
	for _, stages := range []int{3, 5, 9} {
		cfg := ringosc.DefaultConfig()
		cfg.Stages = stages
		r, err := ringosc.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, autoCircuit{fmt.Sprintf("ring%d", stages), r.Sys, r.KickStart(), 1 / r.EstimatedF0() / 256})
	}
	const f1 = 9.6e3
	l, err := ringosc.BuildLatch(ringosc.DefaultLatchConfig(f1))
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, autoCircuit{"latch", l.Sys, l.KickStart(), 1 / f1 / 256})
	for _, rings := range []int{2, 4, 8, 16} {
		arr, err := ringosc.BuildArray(rings)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, autoCircuit{fmt.Sprintf("array%d", rings), arr.Sys, arr.KickStart(), 1 / arr.EstimatedF0() / 256})
	}
	sys, x0, h := oracleAdder(t)
	return append(cs, autoCircuit{"adder", sys, x0, h})
}

// TestAutoBackendByDensity pins Auto's choice per circuit: dense for the
// rings, the D latch and the two-ring array, whose patterns are nearly
// full, and sparse from the 9-stage ring's density of 0.22 down, the
// SPICE-level adder included. An Auto run is bit-identical to a run forced
// onto the backend Auto resolved.
func TestAutoBackendByDensity(t *testing.T) {
	want := map[string]linalg.Backend{
		"ring3": linalg.BackendDense, "ring5": linalg.BackendDense,
		"latch": linalg.BackendDense, "array2": linalg.BackendDense,
		"ring9": linalg.BackendSparse, "array4": linalg.BackendSparse,
		"adder": linalg.BackendSparse, "array8": linalg.BackendSparse,
		"array16": linalg.BackendSparse,
	}
	for _, c := range autoCircuits(t) {
		n, nnz := c.sys.N, c.sys.SparsePattern().NNZ()
		got := c.sys.ResolveBackend(linalg.BackendAuto)
		t.Logf("%s: n = %d, nnz = %d, density %.3f: %v", c.name, n, nnz, float64(nnz)/float64(n*n), got)
		if got != want[c.name] {
			t.Errorf("%s: Auto resolved to %v, want %v", c.name, got, want[c.name])
			continue
		}
		auto, err := transient.Run(c.sys, c.x0, 0, 32*c.h, transient.Options{Method: transient.Trap, Step: c.h})
		if err != nil {
			t.Fatal(err)
		}
		forced, err := transient.Run(c.sys, c.x0, 0, 32*c.h, transient.Options{Method: transient.Trap, Step: c.h, Backend: got})
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, auto.Steps, auto.Final(), forced.Final())
	}
}

// TestFactorizationCountsAgreeAcrossBackends integrates the adder dense and
// forced sparse: both do the same work, and diag.LUFactorizations counts
// it on both. On the sparse backend every factorization is a first
// factorization or a refactor, and the refactors are the reused ones.
func TestFactorizationCountsAgreeAcrossBackends(t *testing.T) {
	sys, x0, h := oracleAdder(t)
	ms := make([]*diag.Metrics, len(oracleBackends))
	for i, bk := range oracleBackends {
		ms[i] = diag.New()
		_, err := transient.RunCtx(diag.WithMetrics(context.Background(), ms[i]), sys, x0, 0, 2000*h,
			transient.Options{Method: transient.Trap, Step: h, Backend: bk})
		if err != nil {
			t.Fatalf("%v: %v", bk, err)
		}
	}
	dense, sp := ms[0], ms[1]
	for _, c := range []diag.Counter{diag.TransientSteps, diag.NewtonIterations, diag.LUFactorizations,
		diag.LUFactorizationsReused, diag.CircuitEvals, diag.CircuitJacEvals} {
		if d, s := dense.Get(c), sp.Get(c); d != s || d == 0 {
			t.Errorf("%v: dense %d, sparse %d; want equal and nonzero", c, d, s)
		}
	}
	if f, r := sp.Get(diag.SparseFactorizations), sp.Get(diag.SparseRefactors); f+r != sp.Get(diag.LUFactorizations) || r != sp.Get(diag.LUFactorizationsReused) {
		t.Errorf("sparse: %d first factorizations + %d refactors against %d factorizations, %d reused",
			f, r, sp.Get(diag.LUFactorizations), sp.Get(diag.LUFactorizationsReused))
	}
	if n := dense.Get(diag.SparseFactorizations) + dense.Get(diag.SparseRefactors); n != 0 {
		t.Errorf("dense run counted %d sparse factorizations", n)
	}
}

// TestSparseWarmStepZeroAlloc pins the sparse hot path at the engine level:
// once a Scratch is warm, a fixed-step sparse integration allocates only
// trajectory storage (Result + arena), not per-step numeric scratch.
func TestSparseWarmStepZeroAlloc(t *testing.T) {
	arr, x0 := buildCoupled(t)
	T := 1 / arr.EstimatedF0()
	sc := transient.NewScratch(arr.Sys)
	opt := transient.Options{Method: transient.Trap, Step: T / 64, Backend: linalg.BackendSparse}
	// Warm up: symbolic analysis + scratch growth happen here.
	if _, err := sc.Run(context.Background(), x0, 0, T/4, opt); err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background(), x0, 0, T/4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sc.Run(context.Background(), x0, 0, T/4, opt); err != nil {
			t.Fatal(err)
		}
	})
	// The dense path's warm-run allocation count is the pinned reference
	// (Result struct, arena chunk, trajectory slice growth — O(1) in n).
	// The sparse branch must add nothing on top of it.
	dOpt := opt
	dOpt.Backend = linalg.BackendDense
	if _, err := sc.Run(context.Background(), x0, 0, T/4, dOpt); err != nil {
		t.Fatal(err)
	}
	denseAllocs := testing.AllocsPerRun(3, func() {
		if _, err := sc.Run(context.Background(), x0, 0, T/4, dOpt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > denseAllocs {
		t.Fatalf("warm sparse run allocated %v allocs/op, dense reference %v — sparse hot path is allocating", allocs, denseAllocs)
	}
}
