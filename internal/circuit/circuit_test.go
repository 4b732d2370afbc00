package circuit_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

func TestNodeCreationAndRails(t *testing.T) {
	c := circuit.New()
	if c.Node("0") != circuit.Ground || c.Node("gnd") != circuit.Ground {
		t.Fatal("ground aliases must map to Ground")
	}
	n1 := c.Node("n1")
	if !n1.IsFree() || c.NodeIndex("n1") != 0 {
		t.Fatal("first free node must have index 0")
	}
	if c.Node("n1") != n1 {
		t.Fatal("Node must be idempotent")
	}
	vdd := c.AddDCRail("vdd", 3.0)
	if vdd.IsFree() {
		t.Fatal("rail must not be free")
	}
	if got := c.RailVoltage(vdd, 0); got != 3.0 {
		t.Fatalf("rail voltage = %g", got)
	}
	if c.Node("vdd") != vdd {
		t.Fatal("Node must resolve existing rails")
	}
	if c.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", c.NumNodes())
	}
}

func TestAssembleAddsParasitics(t *testing.T) {
	c := circuit.New()
	n1 := c.Node("n1")
	c.Add(&device.Resistor{Name: "r1", A: n1, B: circuit.Ground, R: 1e3})
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.C.At(0, 0); got != c.ParasiticCap {
		t.Fatalf("C(0,0) = %g, want parasitic %g", got, c.ParasiticCap)
	}
}

func TestEvalFRCDivider(t *testing.T) {
	// Voltage divider vdd -R1- n1 -R2- gnd: f(x) = (x-3)/R1 + x/R2 + gmin·x.
	c := circuit.New()
	vdd := c.AddDCRail("vdd", 3.0)
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r1", A: vdd, B: n1, R: 1e3},
		&device.Resistor{Name: "r2", A: n1, B: circuit.Ground, R: 2e3},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.Vec{2.0}
	f := sys.EvalF(x, 0, nil)
	want := (2.0-3.0)/1e3 + 2.0/2e3 + c.Gmin*2.0
	if math.Abs(f[0]-want) > 1e-15 {
		t.Fatalf("f = %g, want %g", f[0], want)
	}
}

func TestJacobianMatchesFiniteDifference(t *testing.T) {
	// Nonlinear circuit: inverter (NMOS+PMOS) loaded by R and C.
	c := circuit.New()
	vdd := c.AddDCRail("vdd", 3.0)
	in := c.Node("in")
	out := c.Node("out")
	c.Add(
		&device.Resistor{Name: "rin", A: in, B: circuit.Ground, R: 1e5},
		&device.MOSFET{Name: "mn", D: out, G: in, S: circuit.Ground, Params: device.ALD1106()},
		&device.MOSFET{Name: "mp", D: out, G: in, S: vdd, Params: device.ALD1107(), PMOS: true},
		&device.Capacitor{Name: "cl", A: out, B: circuit.Ground, C: 4.7e-9},
		&device.Summer{Name: "buf", Inputs: []circuit.NodeID{out}, Weights: []float64{-1},
			Out: in, Mid: 1.5, Swing: 1.4, Rout: 1e4},
		&device.TransGate{Name: "tg", A: in, B: out, Ctrl: vdd, Ron: 1e3, Roff: 1e11},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N
	x := linalg.Vec{1.1, 1.7}
	f0 := linalg.NewVec(n)
	j := linalg.NewMat(n, n)
	sys.EvalFJ(x, 0, f0, j)
	const h = 1e-7
	for col := 0; col < n; col++ {
		xp := x.Clone()
		xm := x.Clone()
		xp[col] += h
		xm[col] -= h
		fp := sys.EvalF(xp, 0, nil)
		fm := sys.EvalF(xm, 0, nil)
		for row := 0; row < n; row++ {
			fd := (fp[row] - fm[row]) / (2 * h)
			if math.Abs(fd-j.At(row, col)) > 1e-6*(1+math.Abs(fd)) {
				t.Errorf("J(%d,%d) = %.8g, finite-diff %.8g", row, col, j.At(row, col), fd)
			}
		}
	}
}

func TestInjectionGain(t *testing.T) {
	c := circuit.New()
	n1 := c.Node("n1")
	c.Add(&device.Capacitor{Name: "c1", A: n1, B: circuit.Ground, C: 1e-6})
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	g := sys.InjectionGain(0)
	want := 1 / (1e-6 + c.ParasiticCap)
	if math.Abs(g[0]-want) > 1e-6*want {
		t.Fatalf("gain = %g, want %g", g[0], want)
	}
}

func TestXDotRC(t *testing.T) {
	// RC to a 3 V rail: ẋ = −C⁻¹·f = (3-x)/(RC) approx (parasitic ≪ C).
	c := circuit.New()
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
	f := sys.EvalF(linalg.Vec{1.0}, 0, nil)
	f.Scale(-1)
	xd := sys.CLU.Solve(f)
	want := (3.0 - 1.0) / (1e3 * 1e-6)
	if math.Abs(xd[0]-want) > 1e-3*want {
		t.Fatalf("xdot = %g, want %g", xd[0], want)
	}
}

func TestRailCapInjection(t *testing.T) {
	// Capacitor from a ramping rail into a node: contributes C·dVrail/dt.
	c := circuit.New()
	ramp := c.AddRail("ramp", rampWave(100))
	n1 := c.Node("n1")
	c.Add(
		&device.Capacitor{Name: "cc", A: ramp, B: n1, C: 1e-6},
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	f := sys.EvalF(linalg.Vec{0}, 0.5, nil)
	// The rail cap should source C·dV/dt = 1e-6·100 = 1e-4 A into n1,
	// i.e. f(n1) = -1e-4 (current out is negative).
	if math.Abs(f[0]+1e-4) > 1e-9 {
		t.Fatalf("f = %g, want -1e-4", f[0])
	}
}
