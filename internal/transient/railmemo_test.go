package transient_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/transient"
)

// TestRailEvaluatedOncePerTimePoint: across a θ run, the run's workspace
// runs a rail's V(t) and dV/dt once per accepted time point — the step's
// f(x0, t) reuses the previous step's evaluations at t, and every Newton
// iteration at t+h shares one — although three devices and a coupling
// capacitor read the rail in each evaluation.
func TestRailEvaluatedOncePerTimePoint(t *testing.T) {
	var vCalls, dCalls int
	c := circuit.New()
	drive := c.AddRailDeriv("drive",
		func(tt float64) float64 { vCalls++; return 1.5 + math.Sin(2*math.Pi*1e4*tt) },
		func(tt float64) float64 { dCalls++; return 2 * math.Pi * 1e4 * math.Cos(2*math.Pi*1e4*tt) })
	n1, n2 := c.Node("n1"), c.Node("n2")
	c.Add(
		&device.Resistor{Name: "r1", A: drive, B: n1, R: 1e3},
		&device.TransGate{Name: "tg", A: n1, B: n2, Ctrl: drive, Ron: 1e3, Roff: 1e9, Von: 2, Voff: 1},
		&device.Summer{Name: "s", Inputs: []circuit.NodeID{drive, n1}, Weights: []float64{1, -1},
			Out: n2, Mid: 1.5, Swing: 1, Rout: 100},
		&device.Capacitor{Name: "cc", A: drive, B: n2, C: 1e-9},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.Run(sys, linalg.Vec{0, 0}, 0, 2e-4, transient.Options{Method: transient.Trap, Step: 2e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewtonIters <= res.Steps {
		t.Fatalf("%d Newton iterations over %d steps: the run never reused a time point", res.NewtonIters, res.Steps)
	}
	if want := res.Steps + 1; vCalls != want || dCalls != want {
		t.Fatalf("rail ran V %d and dV/dt %d times over %d steps, want %d each", vCalls, dCalls, res.Steps, want)
	}
}
