package transient_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// TestRecordDecimationFlushesTail pins the fix for the dropped-tail bug: with
// Record > 1, the loop guard can exit inside the 1e-15 guard band of t1
// before the `t >= t1` record condition ever fires, leaving the final
// accepted state unrecorded. The trajectory must always end at the last
// accepted state, so Final() is identical across Record settings.
func TestRecordDecimationFlushesTail(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	for _, method := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		for _, adaptive := range []bool{false, true} {
			if adaptive && method == transient.Gear2 {
				continue // rejected by design; covered below
			}
			name := method.String()
			if adaptive {
				name += "/adaptive"
			}
			t.Run(name, func(t *testing.T) {
				run := func(record int) *transient.Result {
					res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 3*tau, transient.Options{
						Method: method, Step: tau / 333, Adaptive: adaptive, Record: record,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				dense := run(1)
				// 7 does not divide the step count, so without the tail flush
				// the last accepted state lands between record points.
				thin := run(7)
				if thin.Steps != dense.Steps {
					t.Fatalf("Record must not change stepping: %d vs %d steps", thin.Steps, dense.Steps)
				}
				fd, ft := dense.Final(), thin.Final()
				if fd == nil || ft == nil {
					t.Fatal("Final() returned nil on a successful run")
				}
				if fd[0] != ft[0] {
					t.Fatalf("decimated run dropped the tail: Final %g (Record=7) vs %g (Record=1)", ft[0], fd[0])
				}
				tEnd := thin.T[len(thin.T)-1]
				if math.Abs(tEnd-3*tau) > 1e-12*3*tau {
					t.Fatalf("decimated trajectory ends at t=%g, want %g", tEnd, 3*tau)
				}
			})
		}
	}
}

func TestFinalNilOnEmptyResult(t *testing.T) {
	var r *transient.Result
	if r.Final() != nil {
		t.Fatal("nil Result must yield nil Final")
	}
	if (&transient.Result{}).Final() != nil {
		t.Fatal("empty trajectory must yield nil Final, not panic")
	}
}

func TestGear2AdaptiveIsExplicitError(t *testing.T) {
	sys := rcCircuit(t)
	_, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 1e-3, transient.Options{
		Method: transient.Gear2, Step: 1e-6, Adaptive: true,
	})
	if !errors.Is(err, transient.ErrGear2Adaptive) {
		t.Fatalf("Gear2+Adaptive must return ErrGear2Adaptive, got %v", err)
	}
}

// TestRunCountsWork verifies the diag threading: a metrics-carrying context
// must see steps, Newton iterations, LU work and circuit evaluations, and the
// counters must agree with the Result's own bookkeeping.
func TestRunCountsWork(t *testing.T) {
	sys := rcCircuit(t)
	m := diag.New()
	ctx := diag.WithMetrics(context.Background(), m)
	res, err := transient.RunCtx(ctx, sys, linalg.Vec{0}, 0, 1e-3, transient.Options{
		Method: transient.Trap, Step: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get(diag.TransientSteps); got != int64(res.Steps) {
		t.Fatalf("TransientSteps = %d, Result.Steps = %d", got, res.Steps)
	}
	if got := m.Get(diag.NewtonIterations); got != int64(res.NewtonIters) {
		t.Fatalf("NewtonIterations = %d, Result.NewtonIters = %d", got, res.NewtonIters)
	}
	if m.Get(diag.LUFactorizations) == 0 || m.Get(diag.LUSolves) == 0 || m.Get(diag.CircuitEvals) == 0 {
		t.Fatalf("LU/eval counters empty: %+v", m.Snapshot().Counters)
	}
	snap := m.Snapshot()
	if len(snap.Phases) == 0 || snap.Phases[0].Name != "transient" {
		t.Fatalf("expected a 'transient' phase span, got %+v", snap.Phases)
	}
}

// TestGear2CountsWork is the same for the BDF2 path.
func TestGear2CountsWork(t *testing.T) {
	sys := rcCircuit(t)
	m := diag.New()
	ctx := diag.WithMetrics(context.Background(), m)
	res, err := transient.RunCtx(ctx, sys, linalg.Vec{0}, 0, 1e-3, transient.Options{
		Method: transient.Gear2, Step: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get(diag.TransientSteps); got != int64(res.Steps) {
		t.Fatalf("TransientSteps = %d, Result.Steps = %d", got, res.Steps)
	}
	if got := m.Get(diag.NewtonIterations); got != int64(res.NewtonIters) {
		t.Fatalf("NewtonIterations = %d, Result.NewtonIters = %d", got, res.NewtonIters)
	}
}

// TestFixedStepRunLandsOnGrid: a fixed-step run over a whole number of
// steps takes exactly that many, on the grid t0 + k·h, and ends on t1.
// Accumulating t += h instead fell short of t1 by more than the loop's
// 1e-15 guard for this h, so the run took a 20,481st step of ~1e-15 s (the
// θ path) or a BE tail step of that size (Gear2).
func TestFixedStepRunLandsOnGrid(t *testing.T) {
	sys := rcCircuit(t)
	const h, steps = 1.0210631895687061e-07, 20480
	t1 := steps * h
	for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		t.Run(m.String(), func(t *testing.T) {
			res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, t1, transient.Options{Method: m, Step: h})
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != steps {
				t.Fatalf("%d steps over %d·h, want %d (last step %.3g s)", res.Steps, steps, steps, t1-res.T[len(res.T)-2])
			}
			for k, tk := range res.T[:steps] {
				if want := float64(k) * h; tk != want {
					t.Fatalf("T[%d] = %v, want %v", k, tk, want)
				}
			}
			if last := res.T[steps]; last != t1 {
				t.Fatalf("run ends at %v, want %v", last, t1)
			}
		})
	}
}

// TestFixedStepRunEndsWithRemainder: an interval of 100.5 steps takes 100
// steps of h on the grid and a last step of h/2 onto t1 — BE on the Gear2
// path, whose equal-step coefficients would misjudge the half step — and
// every method stays on the RC charging curve.
func TestFixedStepRunEndsWithRemainder(t *testing.T) {
	sys := rcCircuit(t)
	const tau, h = 1e-3, 1e-5
	t1 := 100.5 * h
	want := 3 * (1 - math.Exp(-t1/tau))
	for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, t1, transient.Options{Method: m, Step: h})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 101 || res.T[100] != 100*h || res.T[101] != t1 {
			t.Fatalf("%v: %d steps, T[100] = %v, T[101] = %v; want 101, %v, %v", m, res.Steps, res.T[100], res.T[101], 100*h, t1)
		}
		// Global errors at h = τ/100: BE 2.9e-3, Trap 4.8e-6, Gear2 3.1e-5
		// (9.5e-4 when its half step runs the equal-step BDF2 formula).
		tol := map[transient.Method]float64{transient.BE: 5e-3, transient.Trap: 2e-5, transient.Gear2: 1e-4}[m]
		if got := res.Final()[0]; math.Abs(got-want) > tol*want {
			t.Errorf("%v: v(t1) = %.9g, want %.9g within %g", m, got, want, tol)
		}
	}
}

// ringAtT64 is the paper's ring integrated from its kick-start at 64 Trap
// steps per estimated period with a two-iteration corrector cap, which
// makes the corrector fail, and the run retake a step in halves, a few
// times.
func ringAtT64(t *testing.T, ctx context.Context, method transient.Method) (*transient.Result, float64, error) {
	t.Helper()
	r, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	T := 1 / r.EstimatedF0()
	res, err := transient.RunCtx(ctx, r.Sys, r.InitialState(), 0, 20*T, transient.Options{
		Method: method, Step: T / 64, MaxNewton: 2,
	})
	return res, T, err
}

// TestFixedStepRejectionRetakesInHalves: a fixed-step run whose corrector
// fails retakes that grid step in halves and lands back on its grid — every
// halving adds one accepted sub-step, the run ends on 20·T exactly, it
// records grid points t0 + k·h only, and no step is shorter than
// h/2^Rejected.
func TestFixedStepRejectionRetakesInHalves(t *testing.T) {
	res, T, err := ringAtT64(t, context.Background(), transient.Trap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("no corrector failure: the test does not exercise a retake")
	}
	h := T / 64
	if grid := len(res.T) - 1; res.Steps != grid+res.Rejected {
		t.Fatalf("%d steps over %d grid steps and %d halvings", res.Steps, grid, res.Rejected)
	}
	if last := res.T[len(res.T)-1]; last != 20*T {
		t.Fatalf("run ends at %v, want %v", last, 20*T)
	}
	minStep := math.Inf(1)
	for k := 1; k < len(res.T); k++ {
		if k < len(res.T)-1 && res.T[k] != float64(k)*h {
			t.Fatalf("T[%d] = %v, not the grid point %v", k, res.T[k], float64(k)*h)
		}
		minStep = math.Min(minStep, res.T[k]-res.T[k-1])
	}
	if hMin := h / math.Exp2(float64(res.Rejected)); minStep < hMin*(1-1e-6) {
		t.Fatalf("shortest step %.6g s after %d halvings of %.6g s", minStep, res.Rejected, h)
	}
}

// TestNewtonItersCountsFailedAttempts: Result.NewtonIters is the run's cost
// metric, so it counts the iterations of failed corrector attempts too, as
// diag's NewtonIterations does — on runs that recover by halving the step
// and on runs that fail, on the θ and Gear2 paths.
func TestNewtonItersCountsFailedAttempts(t *testing.T) {
	m := diag.New()
	res, _, err := ringAtT64(t, diag.WithMetrics(context.Background(), m), transient.Trap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("no corrector failure: the test does not exercise a failed attempt")
	}
	if got, want := res.NewtonIters, m.Get(diag.NewtonIterations); int64(got) != want {
		t.Fatalf("ring: Result.NewtonIters = %d over %d rejections, diag counts %d", got, res.Rejected, want)
	}
	sys := nanAfterSystem(t, true)
	for _, bk := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
		for _, method := range []transient.Method{transient.Trap, transient.BE, transient.Gear2} {
			m := diag.New()
			res, err := transient.RunCtx(diag.WithMetrics(context.Background(), m), sys, linalg.Vec{0}, 0, 2e-3,
				transient.Options{Method: method, Step: 1e-5, Backend: bk})
			if err == nil {
				t.Fatalf("%v %v: the NaN source did not fail the run", bk, method)
			}
			if got, want := res.NewtonIters, m.Get(diag.NewtonIterations); int64(got) != want {
				t.Fatalf("%v %v: Result.NewtonIters = %d, diag counts %d", bk, method, got, want)
			}
		}
	}
}
