package transient_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/transient"
)

// halvingBatch runs lanes of a two-corner ring batch with sensitivities and
// recorded states, at most four Newton iterations per step: lane 0 at
// about 500 steps per period, where every step converges, and lane 1 at
// about 5, where the corrector fails until its steps are halved.
func halvingBatch(t *testing.T, active []int) (*transient.BatchResult, *diag.Metrics, []float64, []float64) {
	t.Helper()
	b, err := circuit.NewBatch(cornerRings(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	x0 := kickedStart(2, b.N)
	h := []float64{2e-7, 2e-5}
	m := diag.New()
	res, err := transient.RunBatch(diag.WithMetrics(context.Background(), m), b, x0, transient.BatchOptions{
		Options: transient.Options{Method: transient.Trap, MaxNewton: 4, Sensitivity: true},
		H:       h, T1: laneEnds(h, 24), RecordWave: true, RecordStates: true, Active: active,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, m, x0, h
}

// TestRunBatchHalvesFailingLane: a θ lane whose corrector fails retakes the
// step in halves and lands back on its grid, while the lane beside it keeps
// every bit of its solo run. The retaken lane records only grid points, and
// its monodromy, propagated through the half steps, matches central
// differences of the run.
func TestRunBatchHalvesFailingLane(t *testing.T) {
	both, m, x0, h := halvingBatch(t, nil)
	for k := range 2 {
		if both.Err[k] != nil {
			t.Fatalf("lane %d: %v", k, both.Err[k])
		}
		solo, sm, _, _ := halvingBatch(t, []int{k})
		if i := firstBitDiff(solo.Sens[k].Data, both.Sens[k].Data); i >= 0 {
			t.Fatalf("lane %d: monodromy entry %d differs from its solo run", k, i)
		}
		for s, x := range solo.States[k] {
			requireSameBits(t, s, both.States[k][s], x)
		}
		rej := sm.Get(diag.TransientRejections)
		if (k == 1) != (rej > 0) {
			t.Fatalf("lane %d alone: %d rejections", k, rej)
		}
	}
	if m.Get(diag.TransientRejections) == 0 {
		t.Fatal("no step was halved")
	}
	// Every accepted step counts once: lane 0's 24, and lane 1's grid steps
	// each as the half steps it was retaken in.
	if steps, rej := m.Get(diag.TransientSteps), m.Get(diag.TransientRejections); steps != 24+24+rej {
		t.Fatalf("%d steps counted with %d rejections, want %d", steps, rej, 24+24+rej)
	}
	if len(both.T[1]) != 25 {
		t.Fatalf("lane 1 recorded %d points, want 25", len(both.T[1]))
	}
	for s, tt := range both.T[1] {
		if want := float64(s) * h[1]; math.Abs(tt-want) > 1e-12*want {
			t.Fatalf("lane 1 T[%d] = %v, want %v", s, tt, want)
		}
	}

	// Central differences of the halved lane's final state.
	n := both.N
	b, err := circuit.NewBatch(cornerRings(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	for _, j := range []int{0, n - 1} {
		xp, xm := append([]float64(nil), x0...), append([]float64(nil), x0...)
		xp[n+j] += eps
		xm[n+j] -= eps
		run := func(x []float64) linalg.Vec {
			r, err := transient.RunBatch(context.Background(), b, x, transient.BatchOptions{
				Options: transient.Options{Method: transient.Trap, MaxNewton: 4},
				H:       h, T1: laneEnds(h, 24), Active: []int{1},
			})
			if err != nil || r.Err[1] != nil {
				t.Fatalf("perturbed run: %v %v", err, r.Err[1])
			}
			return r.LaneX(1)
		}
		fp, fm := run(xp), run(xm)
		for i := 0; i < n; i++ {
			fd := (fp[i] - fm[i]) / (2 * eps)
			if got := both.Sens[1].At(i, j); math.Abs(got-fd) > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("dx[%d]/dx0[%d]: monodromy %v, central difference %v", i, j, got, fd)
			}
		}
	}
}

// TestRunBatchHalvingUnderflow: a lane whose corrector never converges
// halves down to the scalar run's floor of H/1e6 and then fails with
// ErrStepUnderflow, a Newton failure.
func TestRunBatchHalvingUnderflow(t *testing.T) {
	b, err := circuit.NewBatch(cornerRings(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := diag.New()
	res, err := transient.RunBatch(diag.WithMetrics(context.Background(), m), b, kickedStart(1, b.N), transient.BatchOptions{
		Options: transient.Options{Method: transient.BE, NewtonTol: 1e-300},
		H:       []float64{2e-7}, T1: []float64{4 * 2e-7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err[0], transient.ErrStepUnderflow) || !errors.Is(res.Err[0], solver.ErrNoConvergence) {
		t.Fatalf("lane err = %v, want ErrStepUnderflow and ErrNoConvergence", res.Err[0])
	}
	// 2e-7/2^20 is the first half step below the floor of 2e-13.
	if got := m.Get(diag.TransientRejections); got != 19 {
		t.Fatalf("%d rejections, want 19", got)
	}
}

// TestLanesIndependentUnderStepControl: every lane of a batch computes what
// transient.Run of its circuit does, bit for bit, although each lane has
// its own step control — in a three-corner θ batch with different steps
// and end times, one interval not a whole number of steps and one lane
// forced to halve as in halvingBatch, and in a two-corner adaptive batch.
// The batch's counts are the sums of its lanes'.
func TestLanesIndependentUnderStepControl(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  transient.BatchOptions
	}{
		{"theta", transient.BatchOptions{
			Options: transient.Options{Method: transient.Trap, MaxNewton: 4, Sensitivity: true, Record: 3},
			H:       []float64{2e-7, 3e-7, 2e-5}, T1: []float64{24 * 2e-7, 30.5 * 3e-7, 24 * 2e-5},
		}},
		{"adaptive", transient.BatchOptions{
			Options: transient.Options{Method: transient.Trap, Adaptive: true, Sensitivity: true},
			H:       []float64{1e-6, 2e-6}, T1: []float64{5e-5, 7e-5},
		}},
	} {
		systems := cornerRings(t, len(c.opt.H))
		b, err := circuit.NewBatch(systems)
		if err != nil {
			t.Fatal(err)
		}
		n := b.N
		x0 := kickedStart(b.K, n)
		c.opt.RecordStates = true
		res, err := transient.RunBatch(context.Background(), b, x0, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		steps, rejected, iters := 0, 0, 0
		for k, sys := range systems {
			if res.Err[k] != nil {
				t.Fatalf("%s lane %d: %v", c.name, k, res.Err[k])
			}
			opt := c.opt.Options
			opt.Step = c.opt.H[k]
			solo, err := transient.Run(sys, linalg.Vec(x0[k*n:(k+1)*n]), 0, c.opt.T1[k], opt)
			if err != nil {
				t.Fatalf("%s lane %d alone: %v", c.name, k, err)
			}
			if len(solo.T) != len(res.T[k]) {
				t.Fatalf("%s lane %d: %d points recorded, %d alone", c.name, k, len(res.T[k]), len(solo.T))
			}
			requireSameBits(t, -1, res.T[k], solo.T)
			for i, x := range solo.X {
				requireSameBits(t, i, res.States[k][i], x)
			}
			requireSameBits(t, -1, res.Sens[k].Data, solo.Sens.Data)
			steps, rejected, iters = steps+solo.Steps, rejected+solo.Rejected, iters+solo.NewtonIters
		}
		if res.Steps != steps || res.Rejected != rejected || res.NewtonIters != iters {
			t.Fatalf("%s: %d steps, %d rejections, %d iterations; the lanes alone %d, %d, %d",
				c.name, res.Steps, res.Rejected, res.NewtonIters, steps, rejected, iters)
		}
		if rejected == 0 {
			t.Fatalf("%s: no lane rejected a step", c.name)
		}
		t.Logf("%s: %d steps, %d rejections, %d iterations", c.name, steps, rejected, iters)
	}
}

// TestRetakeDepthBounded: with a MinStep far below any step a retake
// reaches, a corrector that never converges still fails the run with
// ErrStepUnderflow once one grid step has been halved 62 times, the
// deepest retake whose sub-steps a lane can count.
func TestRetakeDepthBounded(t *testing.T) {
	sys := cornerRings(t, 1)[0]
	res, err := transient.Run(sys, linalg.Vec(kickedStart(1, sys.N)), 0, 4*2e-7, transient.Options{
		Method: transient.BE, Step: 2e-7, MinStep: 1e-300, NewtonTol: 1e-300, MaxNewton: 2,
	})
	if !errors.Is(err, transient.ErrStepUnderflow) {
		t.Fatalf("err = %v, want ErrStepUnderflow", err)
	}
	if res.Steps != 0 || res.Rejected != 62 {
		t.Fatalf("%d steps, %d halvings; want 0 and 62", res.Steps, res.Rejected)
	}
}
