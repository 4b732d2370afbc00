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

func TestGear2RCCharge(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 3*tau, transient.Options{
		Method: transient.Gear2, Step: tau / 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (1 - math.Exp(-3))
	if math.Abs(res.Final()[0]-want) > 2e-4 {
		t.Fatalf("v(3τ) = %g, want %g", res.Final()[0], want)
	}
}

func TestGear2SecondOrderConvergence(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	errAt := func(h float64) float64 {
		res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, tau, transient.Options{
			Method: transient.Gear2, Step: h,
		})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.Final()[0] - 3*(1-math.Exp(-1)))
	}
	e1 := errAt(tau / 200)
	e2 := errAt(tau / 400)
	ratio := e1 / e2
	if ratio < 3.0 || ratio > 5.5 {
		t.Fatalf("Gear2 convergence ratio = %g, want ≈4", ratio)
	}
}

func TestGear2LStabilityDampsStiffRinging(t *testing.T) {
	// A very stiff linear circuit stepped far beyond the fast time
	// constant: trapezoidal produces the classic alternating-sign ringing,
	// Gear2 (L-stable) does not.
	build := func() *circuit.System {
		c := circuit.New()
		c.ParasiticCap = 0
		n1 := c.Node("n1")
		c.Add(
			&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1}, // τ = 1 µs
			&device.Capacitor{Name: "c", A: n1, B: circuit.Ground, C: 1e-6},
		)
		sys, err := c.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	h := 1e-4 // 100× the time constant
	run := func(m transient.Method) []float64 {
		res, err := transient.RunCtx(context.Background(), build(), linalg.Vec{1}, 0, 20*h, transient.Options{
			Method: m, Step: h,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Node(0)
	}
	trap := run(transient.Trap)
	gear := run(transient.Gear2)
	// Trap rings: successive samples alternate in sign with slow decay.
	ringing := 0
	for i := 2; i < len(trap); i++ {
		if trap[i]*trap[i-1] < 0 {
			ringing++
		}
	}
	if ringing < 5 {
		t.Fatalf("expected trapezoidal ringing on the stiff circuit, got %d sign flips", ringing)
	}
	// Gear2 decays monotonically to ~0 fast.
	for i := 3; i < len(gear); i++ {
		if math.Abs(gear[i]) > 1e-3 {
			t.Fatalf("Gear2 sample %d = %g, want strongly damped", i, gear[i])
		}
	}
}

func TestGear2SensitivityMatchesExponential(t *testing.T) {
	sys := rcCircuit(t)
	tau := 1e-3
	res, err := transient.RunCtx(context.Background(), sys, linalg.Vec{1}, 0, tau, transient.Options{
		Method: transient.Gear2, Step: tau / 1000, Sensitivity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1)
	if math.Abs(res.Sens.At(0, 0)-want) > 5e-4 {
		t.Fatalf("Gear2 sensitivity = %g, want %g", res.Sens.At(0, 0), want)
	}
}

func TestGear2RejectsAdaptive(t *testing.T) {
	sys := rcCircuit(t)
	if _, err := transient.RunCtx(context.Background(), sys, linalg.Vec{0}, 0, 1e-3, transient.Options{
		Method: transient.Gear2, Step: 1e-6, Adaptive: true,
	}); err == nil {
		t.Fatal("Gear2 + Adaptive must be rejected")
	}
}

func TestMethodString(t *testing.T) {
	if transient.BE.String() != "BE" || transient.Trap.String() != "TRAP" || transient.Gear2.String() != "GEAR2" {
		t.Fatal("Method.String broken")
	}
}
