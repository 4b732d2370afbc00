package transient_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/transient"
)

// rcCircuit builds R to a 3 V rail charging C at node n1.
func rcCircuit(t testing.TB) *circuit.System {
	c := circuit.New()
	c.ParasiticCap = 0 // the explicit capacitor carries the node
	vdd := c.AddDCRail("vdd", 3.0)
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r", A: vdd, B: n1, R: 1e3},
		&device.Capacitor{Name: "c", A: n1, B: circuit.Ground, C: 1e-6},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRCChargeBE(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 3*tau, transient.Options{
		Method: transient.BE, Step: tau / 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Final()[0]
	want := 3 * (1 - math.Exp(-3))
	if math.Abs(got-want) > 5e-3 {
		t.Fatalf("v(3τ) = %g, want %g", got, want)
	}
}

func TestRCChargeTrapSecondOrder(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	errAt := func(h float64) float64 {
		res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, tau, transient.Options{
			Method: transient.Trap, Step: h,
		})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.Final()[0] - 3*(1-math.Exp(-1)))
	}
	e1 := errAt(tau / 100)
	e2 := errAt(tau / 200)
	// Second order: halving h should cut the error ~4×.
	ratio := e1 / e2
	if ratio < 3.0 || ratio > 5.5 {
		t.Fatalf("trap convergence ratio = %g, want ≈4", ratio)
	}
}

func TestSineDrivenRCAmplitude(t *testing.T) {
	// Current source I·cos(2πft) into parallel RC: steady-state amplitude
	// |V| = I / sqrt(G² + (ωC)²).
	c := circuit.New()
	c.ParasiticCap = 0
	n1 := c.Node("n1")
	f0 := 1e3
	c.Add(
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
		&device.Capacitor{Name: "c", A: n1, B: circuit.Ground, C: 1e-7},
		&device.CurrentSource{Name: "i", From: circuit.Ground, To: n1, Wave: &circuit.Sine{Amp: 1e-3, Freq: f0}},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 20/f0, transient.Options{
		Method: transient.Trap, Step: 1 / f0 / 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Measure amplitude over the last 5 cycles.
	vmax := 0.0
	for i, tt := range res.T {
		if tt > 15/f0 {
			if v := math.Abs(res.X[i][0]); v > vmax {
				vmax = v
			}
		}
	}
	w := 2 * math.Pi * f0
	want := 1e-3 / math.Hypot(1e-3, w*1e-7)
	if math.Abs(vmax-want) > 0.02*want {
		t.Fatalf("amplitude = %g, want %g", vmax, want)
	}
}

func TestAdaptiveMatchesFixed(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	fixed, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 2*tau, transient.Options{
		Method: transient.Trap, Step: tau / 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 2*tau, transient.Options{
		Method: transient.Trap, Step: tau / 100, Adaptive: true, LTETol: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := math.Abs(fixed.Final()[0] - adaptive.Final()[0])
	if d > 1e-4 {
		t.Fatalf("adaptive deviates from fixed by %g", d)
	}
	if adaptive.Steps >= fixed.Steps {
		t.Fatalf("adaptive (%d steps) should use fewer steps than fixed (%d)", adaptive.Steps, fixed.Steps)
	}
}

func TestSensitivityMatchesFiniteDifference(t *testing.T) {
	// For the linear RC, dx(T)/dx(0) = exp(-T/τ) exactly.
	sys := rcCircuit(t)
	tau := 1e-3
	T := tau
	res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{1}, 0, T, transient.Options{
		Method: transient.Trap, Step: tau / 2000, Sensitivity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1)
	if math.Abs(res.Sens.At(0, 0)-want) > 1e-4 {
		t.Fatalf("sensitivity = %g, want %g", res.Sens.At(0, 0), want)
	}
}

func TestSensitivityNonlinearFiniteDifference(t *testing.T) {
	// Nonlinear circuit: inverter charging a capacitor. Compare the
	// propagated sensitivity to a finite-difference of the flow map.
	build := func() *circuit.System {
		c := circuit.New()
		c.ParasiticCap = 0
		vdd := c.AddDCRail("vdd", 3.0)
		in := c.Node("in")
		out := c.Node("out")
		c.Add(
			&device.Capacitor{Name: "ci", A: in, B: circuit.Ground, C: 1e-8},
			&device.Resistor{Name: "ri", A: in, B: circuit.Ground, R: 1e5},
			&device.MOSFET{Name: "mn", D: out, G: in, S: circuit.Ground, Params: device.ALD1106()},
			&device.MOSFET{Name: "mp", D: out, G: in, S: vdd, Params: device.ALD1107(), PMOS: true},
			&device.Capacitor{Name: "co", A: out, B: circuit.Ground, C: 1e-8},
		)
		sys, err := c.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := build()
	x0 := linalg.Vec{1.4, 1.6}
	T := 2e-5
	opt := transient.Options{Method: transient.Trap, Step: 1e-8, Sensitivity: true}
	res, err := transient.RunCtx(context.Background(), sys, x0, 0, T, opt)
	if err != nil {
		t.Fatal(err)
	}
	optNoSens := opt
	optNoSens.Sensitivity = false
	const h = 1e-6
	for col := 0; col < 2; col++ {
		xp := x0.Clone()
		xm := x0.Clone()
		xp[col] += h
		xm[col] -= h
		rp, err := transient.RunCtx(context.Background(), sys, xp, 0, T, optNoSens)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := transient.RunCtx(context.Background(), sys, xm, 0, T, optNoSens)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < 2; row++ {
			fd := (rp.Final()[row] - rm.Final()[row]) / (2 * h)
			got := res.Sens.At(row, col)
			if math.Abs(fd-got) > 2e-3*(1+math.Abs(fd)) {
				t.Errorf("Sens(%d,%d) = %g, finite-diff %g", row, col, got, fd)
			}
		}
	}
}

func TestRecordDecimation(t *testing.T) {
	sys := rcCircuit(t)
	res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 1e-3, transient.Options{
		Method: transient.BE, Step: 1e-6, Record: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) > res.Steps/10+3 {
		t.Fatalf("recorded %d points for %d steps with Record=10", len(res.T), res.Steps)
	}
}
