package pss_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

func TestShootAutonomousRequiresGuess(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	if _, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{}); err == nil {
		t.Fatal("missing GuessT must error")
	}
}

// TestShootAutonomousRejectsMalformedInput: a NaN or ±Inf period guess and
// a start state of the wrong length are refused before integrating, by the
// single-circuit and the batched solve alike. A NaN or +Inf guess used to
// fail only after a settle and a shooting run, with ErrFixedPoint or a
// singular iteration matrix, and a short start state panicked.
func TestShootAutonomousRejectsMalformedInput(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	b, err := circuit.NewBatch([]*circuit.System{r.Sys})
	if err != nil {
		t.Fatal(err)
	}
	guess := 1 / r.EstimatedF0()
	for _, c := range []struct {
		name  string
		x0    linalg.Vec
		guess float64
	}{
		{"NaN guess", r.KickStart(), math.NaN()},
		{"+Inf guess", r.KickStart(), math.Inf(1)},
		{"-Inf guess", r.KickStart(), math.Inf(-1)},
		{"short start", r.KickStart()[:2], guess},
		{"long start", append(r.KickStart(), 0), guess},
	} {
		m := diag.New()
		ctx := diag.WithMetrics(context.Background(), m)
		if sol, err := pss.ShootAutonomousCtx(ctx, r.Sys, c.x0, pss.Options{GuessT: c.guess}); err == nil || sol != nil {
			t.Errorf("%s: (%v, %v), want an error and no solution", c.name, sol, err)
		}
		if sols, errs, err := pss.ShootAutonomousBatch(ctx, b, c.x0, pss.BatchShootOptions{GuessT: []float64{c.guess}}); err == nil || sols != nil || errs != nil {
			t.Errorf("batched %s: err = %v, want a structural error", c.name, err)
		}
		if steps := m.Get(diag.TransientSteps); steps != 0 {
			t.Errorf("%s: %d transient steps before refusing", c.name, steps)
		}
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
	if _, err := pss.ShootAutonomousCtx(context.Background(), sys, linalg.Vec{1}, pss.Options{
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
// would "converge" once it had decayed. The solve must refuse it with
// ErrFixedPoint, which wraps ErrNoConvergence, and return no solution
// instead of reporting f0 = 1/GuessT.
func TestShootAutonomousRejectsFixedPoint(t *testing.T) {
	sys := dampedRC(t)
	fixedPoint := func(err error) bool {
		return errors.Is(err, pss.ErrFixedPoint) && errors.Is(err, solver.ErrNoConvergence)
	}
	if sol, err := pss.ShootAutonomousCtx(context.Background(), sys, linalg.Vec{1}, pss.Options{GuessT: 1e-3}); sol != nil || !fixedPoint(err) {
		t.Fatalf("err = %v, want ErrFixedPoint and no solution", err)
	}
}

// TestFixedPointIndependentOfSettle: whether the damped RC oscillates does
// not depend on how long it settled. After one or two cycles it still falls
// by tenths of a volt over the searched window, after forty it has decayed
// below the periodicity tolerance; the solve refuses it with ErrFixedPoint
// every time, not with ErrNoPhaseCrossing, because no node moves both ways.
func TestFixedPointIndependentOfSettle(t *testing.T) {
	sys := dampedRC(t)
	for _, settle := range []int{1, 2, 3, 5, 7, 8, 12, 20, 40} {
		_, err := pss.ShootAutonomousCtx(context.Background(), sys, linalg.Vec{1}, pss.Options{GuessT: 1e-3, SettleCycles: settle})
		if !errors.Is(err, pss.ErrFixedPoint) || !errors.Is(err, solver.ErrNoConvergence) {
			t.Errorf("settle %d: err = %v, want ErrFixedPoint", settle, err)
		}
	}
}

func TestSolutionKAndGrid(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
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
