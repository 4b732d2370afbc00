package device_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

// TestTransGateMonotoneConductance: g(Vctrl) must rise monotonically from
// 1/Roff to 1/Ron across the control range (a C¹ switch, no bumps that
// would confuse Newton).
func TestTransGateMonotoneConductance(t *testing.T) {
	c := circuit.New()
	ctrl := c.AddDCRail("ctrl", 0) // placeholder
	_ = ctrl
	a, b := c.Node("a"), c.Node("b")
	c.Gmin = 0
	// Build a fresh circuit per control voltage (rails are static funcs).
	gAt := func(vc float64) float64 {
		cc := circuit.New()
		cc.Gmin = 0
		en := cc.AddDCRail("en", vc)
		aa, bb := cc.Node("a"), cc.Node("b")
		cc.Add(&device.TransGate{Name: "tg", A: aa, B: bb, Ctrl: en, Ron: 1e3, Roff: 1e11})
		sys, err := cc.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		f := sys.EvalF(linalg.Vec{1, 0}, 0, nil)
		return f[0] // = g·(1−0)
	}
	prev := gAt(0)
	for vc := 0.1; vc <= 3.0; vc += 0.1 {
		cur := gAt(vc)
		if cur < prev-1e-15 {
			t.Fatalf("conductance not monotone at Vctrl=%g: %g < %g", vc, cur, prev)
		}
		prev = cur
	}
	if prev < 0.9e-3 {
		t.Fatalf("on conductance %g, want ≈1e-3", prev)
	}
	_ = a
	_ = b
}

func TestSummerMultiInputWeights(t *testing.T) {
	// Three inputs with mixed weights in the linear region.
	c := circuit.New()
	c.Gmin = 0
	in1, in2, in3, out := c.Node("i1"), c.Node("i2"), c.Node("i3"), c.Node("o")
	s := &device.Summer{Name: "s", Inputs: []circuit.NodeID{in1, in2, in3},
		Weights: []float64{1, -2, 0.5}, Out: out, Mid: 0, Swing: 100, Rout: 1e3}
	c.Add(s)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.Vec{0.1, 0.05, 0.2, 0}
	f := sys.EvalF(x, 0, nil)
	// u = 0.1 − 0.1 + 0.1 = 0.1; far below swing → target ≈ 0.1.
	want := (0 - 0.1) / 1e3 * math.Tanh(0.1/100) * 100 / 0.1 // ≈ −1e-4
	if math.Abs(f[3]-want) > 1e-8 {
		t.Fatalf("summer out current = %g, want ≈%g", f[3], want)
	}
}

func TestMOSFETLambdaIncreasesSatCurrent(t *testing.T) {
	p0 := device.MOSParams{VT0: 0.7, Beta: 1e-4, Lambda: 0, SmoothVov: 0}
	p1 := p0
	p1.Lambda = 0.05
	m0 := &device.MOSFET{Name: "m", D: 0, G: 1, S: circuit.Ground, Params: p0}
	m1 := &device.MOSFET{Name: "m", D: 0, G: 1, S: circuit.Ground, Params: p1}
	x := linalg.Vec{3, 2}
	i0 := evalSingleQuiet(m0, x)[0]
	i1 := evalSingleQuiet(m1, x)[0]
	if i1 <= i0 {
		t.Fatalf("channel-length modulation must raise Id: %g vs %g", i0, i1)
	}
	if math.Abs(i1/i0-(1+0.05*3)) > 1e-9 {
		t.Fatalf("lambda scaling wrong: ratio %g", i1/i0)
	}
}
