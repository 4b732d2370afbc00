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

// laneEnds returns the end times of lanes taking steps steps of h[k] from
// 0.
func laneEnds(h []float64, steps float64) []float64 {
	t1 := make([]float64, len(h))
	for k := range h {
		t1[k] = steps * h[k]
	}
	return t1
}

// TestRunBatchMatchesScalar pins the lanes to the scalar run's stepping,
// restated over the one corrector: every lane of a four-corner batch, each
// with its own step size, takes bit for bit the steps that a loop of
// ThetaStepper takes on its grid from the run's predictor — for Gear2 a BE
// first step from the lane's state, then GearStepper's BDF2 steps.
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
		h[k] = float64(8+k) * math.Ldexp(1, -33)
	}
	for _, method := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		res, err := transient.RunBatch(context.Background(), b, x0, transient.BatchOptions{
			Options: transient.Options{Method: method}, H: h, T1: laneEnds(h, steps), RecordStates: true,
		})
		if err != nil {
			t.Fatalf("%v: RunBatch: %v", method, err)
		}
		opt := transient.Options{Method: method, NewtonTol: 1e-9, MaxNewton: 40}
		for k, sys := range systems {
			if res.Err[k] != nil {
				t.Fatalf("%v: lane %d failed: %v", method, k, res.Err[k])
			}
			var theta, bdf transient.StepFunc
			if method == transient.Gear2 {
				beOpt := opt
				beOpt.Method = transient.BE
				theta, bdf = transient.ThetaStepper(sys, beOpt), transient.GearStepper(sys, opt)
			} else {
				theta = transient.ThetaStepper(sys, opt)
			}
			x := linalg.Vec(x0[k*n : (k+1)*n]).Clone()
			prev, prev2, pred := x.Clone(), x.Clone(), linalg.NewVec(n)
			for s := 0; s < steps; s++ {
				tt := float64(s) * h[k]
				var got linalg.Vec
				switch {
				case method == transient.Gear2 && s > 0:
					got, _, err = bdf(prev, x, tt, h[k])
				case method == transient.Gear2:
					got, _, err = theta(x, x, tt, h[k])
				default:
					fixedPredict(pred, x, prev, prev2, s, h[k])
					got, _, err = theta(x, pred, tt, h[k])
				}
				if err != nil {
					t.Fatalf("%v lane %d step %d: %v", method, k, s, err)
				}
				requireSameBits(t, s, res.States[k][s+1], got)
				prev2.CopyFrom(prev)
				prev.CopyFrom(x)
				x.CopyFrom(got)
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
		Options: transient.Options{Method: transient.Trap}, H: h, T1: laneEnds(h, steps),
		RecordWave: true, RecordNode: 0, RecordStates: true,
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
	ends := []float64{1e-9, 1e-9}
	if _, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{H: []float64{1e-9, 1e-9}}); err == nil {
		t.Fatal("missing T1 accepted")
	}
	if _, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{H: []float64{1e-9}, T1: ends}); err == nil {
		t.Fatal("short H accepted")
	}
	for _, h := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		res, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{H: []float64{1e-9, h}, T1: ends})
		if err == nil || res != nil {
			t.Fatalf("H[1] = %g accepted: (%v, %v)", h, res, err)
		}
	}
	if _, err := transient.RunBatch(ctx, b, x0[:3], transient.BatchOptions{H: []float64{1e-9, 1e-9}, T1: ends}); err == nil {
		t.Fatal("short x0 accepted")
	}
	if _, err := transient.RunBatch(ctx, b, x0, transient.BatchOptions{H: []float64{1e-9, 1e-9}, T1: ends, Active: []int{5}}); err == nil {
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
	opt := transient.BatchOptions{Options: transient.Options{Method: transient.Trap, Sensitivity: true}, H: h, T1: laneEnds(h, steps)}
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
