package circuit_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

func TestEvalScaledSourceStepping(t *testing.T) {
	c := circuit.New()
	n1 := c.Node("n1")
	c.Add(
		device.DCCurrent("i", circuit.Ground, n1, 2e-3),
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	f := linalg.NewVec(1)
	x := linalg.Vec{0}
	// Full source: f = −2 mA (+gmin terms).
	ws.EvalScaled(x, 0, f, nil, 1, 1)
	if math.Abs(f[0]+2e-3) > 1e-9 {
		t.Fatalf("srcScale=1: f = %g", f[0])
	}
	// Half source.
	ws.EvalScaled(x, 0, f, nil, 1, 0.5)
	if math.Abs(f[0]+1e-3) > 1e-9 {
		t.Fatalf("srcScale=0.5: f = %g", f[0])
	}
	// Gmin scaling adds g·scale·x.
	x[0] = 1
	ws.EvalScaled(x, 0, f, nil, 1e6, 0)
	want := 1e-3 + c.Gmin*1e6*1 // resistor + scaled gmin
	if math.Abs(f[0]-want) > 1e-12 {
		t.Fatalf("gmin scaling: f = %g, want %g", f[0], want)
	}
}

func TestRailRedefinitionAndConflicts(t *testing.T) {
	c := circuit.New()
	c.AddDCRail("vdd", 3)
	// Redefining a rail's waveform is allowed.
	id := c.AddRail("vdd", circuit.DC(5))
	if got := c.RailVoltage(id, 0); got != 5 {
		t.Fatalf("redefined rail = %g", got)
	}
	// Turning an existing free node into a rail must panic.
	c.Node("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for free-node/rail conflict")
		}
	}()
	c.AddRail("x", circuit.DC(0))
}

func TestAssembleFailsWithZeroCapacitance(t *testing.T) {
	c := circuit.New()
	c.ParasiticCap = 0
	c.Node("n1")
	c.Add(&device.Resistor{Name: "r", A: 0, B: circuit.Ground, R: 1e3})
	if _, err := c.Assemble(); err == nil {
		t.Fatal("purely algebraic node without parasitic cap must fail assembly")
	}
}

func TestNodeNameLookup(t *testing.T) {
	c := circuit.New()
	a := c.Node("alpha")
	b := c.Node("beta")
	if c.NodeName(int(a)) != "alpha" || c.NodeName(int(b)) != "beta" {
		t.Fatal("NodeName mismatch")
	}
	if c.NodeIndex("gamma") != -1 {
		t.Fatal("unknown node must return -1")
	}
}
