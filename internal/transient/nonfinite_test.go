package transient_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/transient"
)

// nanAfterSystem is an RC node driven by a current source that turns NaN
// after 1 ms (a broken waveform or device model).
func nanAfterSystem(t *testing.T, poisoned bool) *circuit.System {
	t.Helper()
	c := circuit.New()
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
		&device.Capacitor{Name: "c", A: n1, B: circuit.Ground, C: 1e-6},
		&device.CurrentSource{Name: "i", From: circuit.Ground, To: n1, I: func(tt float64) float64 {
			if poisoned && tt > 1e-3 {
				return math.NaN()
			}
			return 1e-3
		}},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestCorrectorRejectsNonFiniteIterate: a NaN update must fail the
// corrector — on every method and backend — instead of passing the
// max-norm convergence test (which skips NaN entries) and handing back an
// all-NaN trajectory as a success.
func TestCorrectorRejectsNonFiniteIterate(t *testing.T) {
	sys := nanAfterSystem(t, true)
	for _, bk := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
		for _, m := range []transient.Method{transient.Trap, transient.BE, transient.Gear2} {
			t.Run(fmt.Sprintf("%v/%v", bk, m), func(t *testing.T) {
				res, err := transient.Run(sys, linalg.Vec{0}, 0, 2e-3, transient.Options{
					Method: m, Step: 1e-5, Backend: bk,
				})
				if err == nil {
					t.Fatalf("NaN source after 1 ms accepted: final state %v", res.Final())
				}
				if !errors.Is(err, solver.ErrNoConvergence) {
					t.Fatalf("failure does not wrap solver.ErrNoConvergence: %v", err)
				}
				if m != transient.Gear2 && !errors.Is(err, transient.ErrStepUnderflow) {
					t.Fatalf("θ failure does not wrap ErrStepUnderflow: %v", err)
				}
				for i, x := range res.X {
					if !allFinite(x) {
						t.Fatalf("recorded state %d at t=%g is %v", i, res.T[i], x)
					}
				}
				if last := res.T[len(res.T)-1]; last > 1e-3 {
					t.Fatalf("trajectory accepted a point at t=%g, past the NaN onset", last)
				}
			})
		}
	}
}

// TestBatchLaneRejectsNonFiniteIterate: the same failure in one lane of a
// lockstep batch freezes that lane with a taxonomy error and leaves its
// healthy neighbour untouched.
func TestBatchLaneRejectsNonFiniteIterate(t *testing.T) {
	b, err := circuit.NewBatch([]*circuit.System{nanAfterSystem(t, false), nanAfterSystem(t, true)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.RunBatch(context.Background(), b, []float64{0, 0}, transient.BatchOptions{
		Options: transient.Options{Method: transient.Trap, Step: 1e-5}, T1: []float64{2e-3, 2e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err[0] != nil {
		t.Fatalf("healthy lane failed: %v", res.Err[0])
	}
	if !errors.Is(res.Err[1], solver.ErrNoConvergence) {
		t.Fatalf("poisoned lane error %v does not wrap solver.ErrNoConvergence", res.Err[1])
	}
	if !allFinite(res.X) {
		t.Fatalf("final lane states %v are not finite", res.X)
	}
}

// TestRunRejectsMalformedInput: a NaN or ±Inf step and a start state of the
// wrong length are refused before integrating, by every method. A NaN or
// +Inf step used to return a one-point trajectory and no error, and a short
// start state panicked.
func TestRunRejectsMalformedInput(t *testing.T) {
	sys := nanAfterSystem(t, false)
	for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
		for _, step := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
			res, err := transient.Run(sys, linalg.Vec{0}, 0, 1e-3, transient.Options{Method: m, Step: step})
			if err == nil || res != nil {
				t.Errorf("%v step %g: (%v, %v), want an error and no result", m, step, res, err)
			}
		}
		for _, x0 := range []linalg.Vec{{}, {0, 0}} {
			res, err := transient.Run(sys, x0, 0, 1e-3, transient.Options{Method: m, Step: 1e-5})
			if err == nil || res != nil {
				t.Errorf("%v x0 of length %d: (%v, %v), want an error and no result", m, len(x0), res, err)
			}
		}
	}
}
