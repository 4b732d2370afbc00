package transient_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// cornerRings builds K congruent ring systems with per-lane parameter
// spreads, the shape Monte-Carlo batches produce.
func cornerRings(t testing.TB, k int) []*circuit.System {
	t.Helper()
	systems := make([]*circuit.System, k)
	for i := 0; i < k; i++ {
		cfg := ringosc.DefaultConfig()
		d := float64(i) - float64(k)/2
		cfg.NMOS.Beta *= 1 + 0.04*d
		cfg.PMOS.VT0 *= 1 + 0.02*d
		cfg.CLoad *= 1 + 0.06*d
		r, err := ringosc.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = r.Sys
	}
	return systems
}

// kickedStart returns a non-equilibrium lane-major start state.
func kickedStart(k, n int) []float64 {
	x := make([]float64, k*n)
	for lane := 0; lane < k; lane++ {
		for i := 0; i < n; i++ {
			x[lane*n+i] = 1.5 + 0.7*math.Sin(float64(lane*n+i))
		}
	}
	return x
}

// TestRunBatchMatchesScalar pins the batched stepper to the scalar path:
// every lane integrated in lockstep (per-lane step sizes) — BE, Trap, and
// Gear2 against runGear2 — must agree with a scalar transient.Run of the
// same corner to tight tolerance, including the propagated monodromy. Step
// sizes and counts are chosen so the scalar accumulated time hits t1
// exactly (no clamped final step).
func TestRunBatchMatchesScalar(t *testing.T) {
	const K = 4
	const steps = 96
	systems := cornerRings(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	n := b.N
	x0 := kickedStart(K, n)
	h := make([]float64, K)
	for k := range h {
		// (8+k)·2⁻³³ s: per-lane steps whose partial sums are exact in FP.
		h[k] = float64(8+k) * math.Ldexp(1, -33)
	}
	for _, method := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		res, err := transient.RunBatch(context.Background(), b, x0, transient.BatchOptions{
			Method: method, Steps: steps, H: h, Sensitivity: true,
		})
		if err != nil {
			t.Fatalf("%v: RunBatch: %v", method, err)
		}
		for k := 0; k < K; k++ {
			if res.Err[k] != nil {
				t.Fatalf("%v: lane %d failed: %v", method, k, res.Err[k])
			}
			t1 := float64(steps) * h[k]
			scalar, err := transient.Run(systems[k], linalg.Vec(x0[k*n:(k+1)*n]), 0, t1, transient.Options{
				Method: method, Step: h[k], Sensitivity: true,
			})
			if err != nil {
				t.Fatalf("%v: scalar lane %d: %v", method, k, err)
			}
			if scalar.Steps != steps {
				t.Fatalf("%v: scalar lane %d took %d steps, want %d (grid not exact)", method, k, scalar.Steps, steps)
			}
			want := scalar.Final()
			got := res.LaneX(k)
			for i := 0; i < n; i++ {
				if d := math.Abs(got[i] - want[i]); d > 1e-10*(1+math.Abs(want[i])) {
					t.Errorf("%v: lane %d x[%d]: batch %v vs scalar %v (diff %g)", method, k, i, got[i], want[i], d)
				}
			}
			for i := 0; i < n*n; i++ {
				d := math.Abs(res.Sens[k].Data[i] - scalar.Sens.Data[i])
				if d > 1e-8*(1+math.Abs(scalar.Sens.Data[i])) {
					t.Errorf("%v: lane %d monodromy[%d]: batch %v vs scalar %v", method, k, i, res.Sens[k].Data[i], scalar.Sens.Data[i])
				}
			}
		}
	}
}

// TestRunBatchActiveMaskAndRecording checks that inactive lanes pass through
// untouched and that recordings have the lockstep shape.
func TestRunBatchActiveMaskAndRecording(t *testing.T) {
	const K = 3
	const steps = 32
	systems := cornerRings(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	n := b.N
	x0 := kickedStart(K, n)
	h := []float64{1e-9, 1.5e-9, 2e-9}
	res, err := transient.RunBatch(context.Background(), b, x0, transient.BatchOptions{
		Method: transient.Trap, Steps: steps, H: h,
		Record: true, RecordNode: 0, RecordStates: true,
		Active: []int{0, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.X[1*n+i] != x0[1*n+i] {
			t.Fatalf("inactive lane 1 state was modified at node %d", i)
		}
	}
	if res.T[1] != nil || res.NodeV[1] != nil || res.States[1] != nil {
		t.Fatal("inactive lane 1 has recordings")
	}
	for _, k := range []int{0, 2} {
		if res.Err[k] != nil {
			t.Fatalf("lane %d failed: %v", k, res.Err[k])
		}
		if len(res.T[k]) != steps+1 || len(res.NodeV[k]) != steps+1 || len(res.States[k]) != steps+1 {
			t.Fatalf("lane %d recorded %d/%d/%d points, want %d", k, len(res.T[k]), len(res.NodeV[k]), len(res.States[k]), steps+1)
		}
		for s, tk := range res.T[k] {
			if want := float64(s) * h[k]; math.Abs(tk-want) > 1e-18+1e-12*want {
				t.Fatalf("lane %d T[%d] = %v, want %v", k, s, tk, want)
			}
		}
		if res.NodeV[k][0] != x0[k*n] {
			t.Fatalf("lane %d waveform does not start at the initial state", k)
		}
		final := res.States[k][steps]
		for i := 0; i < n; i++ {
			if final[i] != res.X[k*n+i] {
				t.Fatalf("lane %d recorded final state disagrees with X", k)
			}
		}
	}
}

// TestRunBatchOptionValidation covers the structural error paths.
func TestRunBatchOptionValidation(t *testing.T) {
	systems := cornerRings(t, 2)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, 2*b.N)
	ctx := context.Background()
	if _, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{Steps: 0, H: []float64{1e-9, 1e-9}}); err == nil {
		t.Fatal("zero Steps accepted")
	}
	if _, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{Steps: 1, H: []float64{1e-9}}); err == nil {
		t.Fatal("short H accepted")
	}
	for _, h := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		res, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{Steps: 1, H: []float64{1e-9, h}})
		if err == nil || res != nil {
			t.Fatalf("H[1] = %g accepted: (%v, %v)", h, res, err)
		}
	}
	if _, err := transient.RunBatch(ctx, b, x0[:3], transient.BatchOptions{Steps: 1, H: []float64{1e-9, 1e-9}}); err == nil {
		t.Fatal("short x0 accepted")
	}
	if _, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{Steps: 1, H: []float64{1e-9, 1e-9}, Active: []int{5}}); err == nil {
		t.Fatal("out-of-range Active lane accepted")
	}
}

// TestRunBatchScratchReuse runs two integrations through one scratch and
// checks the second matches a fresh scratch bitwise (no state leaks across
// runs, in particular no stale accepted-point cache).
func TestRunBatchScratchReuse(t *testing.T) {
	const K = 3
	const steps = 24
	systems := cornerRings(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	sc := transient.NewBatchScratch(b)
	x0 := kickedStart(K, b.N)
	h := []float64{1e-9, 1.2e-9, 1.4e-9}
	opt := transient.BatchOptions{Method: transient.Trap, Steps: steps, H: h, Sensitivity: true}
	if _, err := sc.Run(context.Background(), x0, opt); err != nil {
		t.Fatal(err)
	}
	second, err := sc.Run(context.Background(), x0, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := transient.RunBatch(context.Background(), b, x0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.X {
		if second.X[i] != fresh.X[i] {
			t.Fatalf("X[%d] differs on scratch reuse: %v vs %v", i, second.X[i], fresh.X[i])
		}
	}
	for k := 0; k < K; k++ {
		for i, v := range fresh.Sens[k].Data {
			if second.Sens[k].Data[i] != v {
				t.Fatalf("lane %d Sens[%d] differs on scratch reuse", k, i)
			}
		}
	}
}
