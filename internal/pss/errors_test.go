package pss_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

func TestShootAutonomousRequiresGuess(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	if _, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{}); err == nil {
		t.Fatal("missing GuessT must error")
	}
}

func TestShootDrivenOnAutonomousFindsOrbitPoint(t *testing.T) {
	// On an autonomous oscillator every orbit point is a fixed point of the
	// exact-period map, so driven shooting (given the true period) may land
	// on an arbitrary phase — but whatever it returns must genuinely be a
	// periodic point, and the degenerate phase direction must show up as a
	// unit Floquet multiplier.
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(),
	})
	if err != nil {
		t.Fatal(err)
	}
	x0 := sol.X0.Clone()
	x0[0] += 0.3
	drv, err := pss.ShootDriven(r.Sys, x0, sol.T0, pss.Options{MaxIter: 20})
	if err != nil {
		// Equally acceptable: the near-singular (M − I) may be refused.
		if !strings.Contains(err.Error(), "singular") && !strings.Contains(err.Error(), "converge") {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if drv.Residual > 1e-6 {
		t.Fatalf("returned a non-periodic point: residual %g", drv.Residual)
	}
	trivial, _, _ := drv.StabilityReport()
	if real(trivial) < 0.98 || real(trivial) > 1.02 {
		t.Fatalf("expected a unit multiplier betraying autonomy, got %v", trivial)
	}
}

func TestShootAutonomousNonOscillator(t *testing.T) {
	// A damped RC has no limit cycle: the shooting loop must fail (either
	// by recurrence detection or by a singular bordered system), never
	// fabricate a period.
	c := circuit.New()
	c.ParasiticCap = 0
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
		&device.Capacitor{Name: "c", A: n1, B: circuit.Ground, C: 1e-6},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pss.ShootAutonomous(sys, linalg.Vec{1}, pss.Options{
		GuessT: 1e-3, MaxIter: 6, SettleCycles: 2,
	}); err == nil {
		t.Fatal("non-oscillating circuit must not yield a PSS")
	}
}

// dampedRC is a one-node RC circuit (time constant 1 ms): no limit cycle,
// only a stable equilibrium at 0 V.
func dampedRC(t *testing.T) *circuit.System {
	t.Helper()
	c := circuit.New()
	c.ParasiticCap = 0
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
		&device.Capacitor{Name: "c", A: n1, B: circuit.Ground, C: 1e-6},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestShootAutonomousRejectsFixedPoint: the damped RC has no orbit to
// converge to, and with its time constant as the period guess any guess
// would "converge" once it had decayed. Both the scalar and the batched
// solve must refuse it with ErrFixedPoint, which wraps ErrNoConvergence,
// instead of reporting f0 = 1/GuessT.
func TestShootAutonomousRejectsFixedPoint(t *testing.T) {
	sys := dampedRC(t)
	fixedPoint := func(err error) bool {
		return errors.Is(err, pss.ErrFixedPoint) && errors.Is(err, solver.ErrNoConvergence)
	}
	if _, err := pss.ShootAutonomous(sys, linalg.Vec{1}, pss.Options{GuessT: 1e-3}); !fixedPoint(err) {
		t.Fatalf("scalar: err = %v, want ErrFixedPoint", err)
	}
	b, err := circuit.NewBatch([]*circuit.System{sys})
	if err != nil {
		t.Fatal(err)
	}
	sols, errs, err := pss.ShootAutonomousBatch(context.Background(), b, []float64{1}, pss.BatchShootOptions{
		GuessT: []float64{1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sols[0] != nil || !fixedPoint(errs[0]) {
		t.Fatalf("batched: err = %v, want ErrFixedPoint and no solution", errs[0])
	}
}

// TestFixedPointIndependentOfSettle: whether the damped RC oscillates does
// not depend on how long it settled. After one or two cycles it still falls
// by tenths of a volt over the searched window, after forty it has decayed
// below the periodicity tolerance; both solves refuse it with ErrFixedPoint
// every time, not with ErrNoPhaseCrossing, because no node moves both ways.
func TestFixedPointIndependentOfSettle(t *testing.T) {
	sys := dampedRC(t)
	for _, settle := range []int{1, 2, 3, 5, 7, 8, 12, 20, 40} {
		_, _, serr, berr := shootBoth(t, sys, linalg.Vec{1}, pss.Options{GuessT: 1e-3, SettleCycles: settle})
		for name, err := range map[string]error{"scalar": serr, "batched": berr} {
			if !errors.Is(err, pss.ErrFixedPoint) || !errors.Is(err, solver.ErrNoConvergence) {
				t.Errorf("settle %d, %s: err = %v, want ErrFixedPoint", settle, name, err)
			}
		}
	}
}

func TestSolutionKAndGrid(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.K() != 256 {
		t.Fatalf("K = %d", sol.K())
	}
	if len(sol.Grid) != 257 || sol.Grid[0] != 0 {
		t.Fatalf("grid malformed")
	}
	if g := sol.Grid[256]; g != sol.T0 {
		t.Fatalf("grid end %g ≠ T0 %g", g, sol.T0)
	}
}
