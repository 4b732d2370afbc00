package device_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

// evalSingle evaluates one device in a scratch 4-node circuit context and
// returns the KCL current vector.
func evalSingle(t *testing.T, d circuit.Device, x linalg.Vec, tt float64) linalg.Vec {
	t.Helper()
	c := circuit.New()
	for i := 0; i < len(x); i++ {
		c.Node(string(rune('a' + i)))
	}
	c.Gmin = 0
	c.Add(d)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys.EvalF(x, tt, nil)
}

func TestResistorOhm(t *testing.T) {
	r := &device.Resistor{Name: "r", A: 0, B: 1, R: 2e3}
	f := evalSingle(t, r, linalg.Vec{3, 1}, 0)
	if math.Abs(f[0]-1e-3) > 1e-15 || math.Abs(f[1]+1e-3) > 1e-15 {
		t.Fatalf("f = %v", f)
	}
}

func TestCurrentSourceDirection(t *testing.T) {
	s := device.DCCurrent("i", 0, 1, 5e-3)
	f := evalSingle(t, s, linalg.Vec{0, 0}, 0)
	// 5 mA leaves node 0 and enters node 1.
	if f[0] != 5e-3 || f[1] != -5e-3 {
		t.Fatalf("f = %v", f)
	}
}

func TestSineCurrentPhaseConvention(t *testing.T) {
	s := &device.SineCurrent{Name: "i", From: 0, To: circuit.Ground, Amp: 2e-3, Freq: 1e3, Phase: 0.25}
	f := evalSingle(t, s, linalg.Vec{0}, 0)
	// cos(2π·0.25) = 0 at t=0.
	if math.Abs(f[0]) > 1e-12 {
		t.Fatalf("f = %v, want 0 at quarter-cycle phase", f)
	}
	f = evalSingle(t, s, linalg.Vec{0}, 0.75e-3) // freq·t + phase = 1 → cos = 1
	if math.Abs(f[0]-2e-3) > 1e-12 {
		t.Fatalf("f = %v, want 2 mA", f)
	}
}

func TestPWLCurrentInterpolation(t *testing.T) {
	p := &device.PWLCurrent{Name: "p", From: 0, To: circuit.Ground,
		Times: []float64{0, 1, 2}, Values: []float64{0, 10, 10}}
	cases := map[float64]float64{-1: 0, 0: 0, 0.5: 5, 1: 10, 1.7: 10, 5: 10}
	for tt, want := range cases {
		if got := p.At(tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestPulseFunc(t *testing.T) {
	f := device.PulseFunc(0, 3, 1e-3, 1e-4, 1e-4, 2e-3, 5e-3)
	cases := map[float64]float64{
		0:       0,   // before delay
		1.05e-3: 1.5, // mid-rise
		2e-3:    3,   // plateau
		3.15e-3: 1.5, // mid-fall
		4e-3:    0,   // low
		6.05e-3: 1.5, // second period mid-rise
	}
	for tt, want := range cases {
		if got := f(tt); math.Abs(got-want) > 1e-9 {
			t.Errorf("pulse(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestMOSFETRegions(t *testing.T) {
	p := device.MOSParams{VT0: 0.7, Beta: 1e-4, Lambda: 0, SmoothVov: 0}
	m := &device.MOSFET{Name: "m", D: 0, G: 1, S: circuit.Ground, Params: p}
	// Cutoff: vgs < VT.
	f := evalSingle(t, m, linalg.Vec{3, 0.5}, 0)
	if f[0] != 0 {
		t.Fatalf("cutoff current = %g", f[0])
	}
	// Saturation: vgs=2, vds=3 > vov=1.3 → Id = β/2·vov².
	f = evalSingle(t, m, linalg.Vec{3, 2}, 0)
	want := 0.5 * 1e-4 * 1.3 * 1.3
	if math.Abs(f[0]-want) > 1e-12 {
		t.Fatalf("sat current = %g, want %g", f[0], want)
	}
	// Triode: vds=0.5 < vov=1.3.
	f = evalSingle(t, m, linalg.Vec{0.5, 2}, 0)
	want = 1e-4 * (1.3*0.5 - 0.5*0.25)
	if math.Abs(f[0]-want) > 1e-12 {
		t.Fatalf("triode current = %g, want %g", f[0], want)
	}
}

func TestMOSFETSymmetryUnderReversal(t *testing.T) {
	// Swapping D and S must negate the terminal current (long-channel
	// square law is symmetric).
	p := device.MOSParams{VT0: 0.7, Beta: 1e-4, Lambda: 0.02, SmoothVov: 1e-3}
	f := func(vd, vg float64) bool {
		m := &device.MOSFET{Name: "m", D: 0, G: 1, S: 2, Params: p}
		x := linalg.Vec{vd, vg, 0.3}
		fa := evalSingleQuiet(m, x)
		m2 := &device.MOSFET{Name: "m", D: 2, G: 1, S: 0, Params: p}
		fb := evalSingleQuiet(m2, x)
		return math.Abs(fa[0]-fb[0]) < 1e-15 && math.Abs(fa[2]-fb[2]) < 1e-15
	}
	if err := quick.Check(func(a, b uint8) bool {
		return f(float64(a)/64, float64(b)/64)
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func evalSingleQuiet(d circuit.Device, x linalg.Vec) linalg.Vec {
	c := circuit.New()
	for i := 0; i < len(x); i++ {
		c.Node(string(rune('a' + i)))
	}
	c.Gmin = 0
	c.Add(d)
	sys, err := c.Assemble()
	if err != nil {
		panic(err)
	}
	return sys.EvalF(x, 0, nil)
}

func TestMOSFETPMOSMirrors(t *testing.T) {
	p := device.MOSParams{VT0: 0.8, Beta: 1e-4, Lambda: 0, SmoothVov: 0}
	// PMOS with S at 3 V, G at 0, D at 0: |vgs|=3 > VT, |vds|=3 → saturation,
	// current flows S→D inside the device, so it *enters* node D (f < 0
	// at D means current into the node from the device’s perspective).
	m := &device.MOSFET{Name: "mp", D: 0, G: 1, S: 2, Params: p, PMOS: true}
	f := evalSingleQuiet(m, linalg.Vec{0, 0, 3})
	vov := 3 - 0.8
	want := 0.5 * 1e-4 * vov * vov
	if math.Abs(f[0]+want) > 1e-12 { // current into D
		t.Fatalf("PMOS drain current = %g, want %g into node", f[0], -want)
	}
	if math.Abs(f[2]-want) > 1e-12 { // current out of S
		t.Fatalf("PMOS source current = %g, want %g", f[2], want)
	}
}

func TestMOSFETContinuityAcrossRegions(t *testing.T) {
	// Id(vds) must be C¹ at the triode/saturation boundary.
	p := device.MOSParams{VT0: 0.7, Beta: 1e-4, Lambda: 0.02, SmoothVov: 0}
	m := &device.MOSFET{Name: "m", D: 0, G: 1, S: circuit.Ground, Params: p}
	vov := 1.3
	eps := 1e-7
	fm := evalSingleQuiet(m, linalg.Vec{vov - eps, 2})
	fp := evalSingleQuiet(m, linalg.Vec{vov + eps, 2})
	if math.Abs(fp[0]-fm[0]) > 1e-12 {
		t.Fatalf("Id jump at boundary: %g vs %g", fm[0], fp[0])
	}
	dm := (evalSingleQuiet(m, linalg.Vec{vov - eps, 2})[0] - evalSingleQuiet(m, linalg.Vec{vov - 2*eps, 2})[0]) / eps
	dp := (evalSingleQuiet(m, linalg.Vec{vov + 2*eps, 2})[0] - evalSingleQuiet(m, linalg.Vec{vov + eps, 2})[0]) / eps
	if math.Abs(dp-dm) > 1e-4*(1+math.Abs(dm)) {
		t.Fatalf("gds jump at boundary: %g vs %g", dm, dp)
	}
}

func TestMOSFETMult(t *testing.T) {
	p := device.MOSParams{VT0: 0.7, Beta: 1e-4, Lambda: 0, SmoothVov: 0}
	m1 := &device.MOSFET{Name: "m", D: 0, G: 1, S: circuit.Ground, Params: p}
	m2 := &device.MOSFET{Name: "m", D: 0, G: 1, S: circuit.Ground, Params: p, Mult: 2}
	x := linalg.Vec{3, 2}
	f1 := evalSingleQuiet(m1, x)
	f2 := evalSingleQuiet(m2, x)
	if math.Abs(f2[0]-2*f1[0]) > 1e-15 {
		t.Fatalf("Mult=2 current %g, want %g", f2[0], 2*f1[0])
	}
}

func TestSummerSaturates(t *testing.T) {
	s := &device.Summer{Name: "s", Inputs: []circuit.NodeID{0}, Weights: []float64{10},
		Out: 1, Mid: 1.5, Swing: 1.4, Rout: 1e3}
	// Large positive input: target saturates at Mid+Swing = 2.9 V; with the
	// output held at 1.5 V the device pulls (1.5-2.9)/1e3 out of the node.
	f := evalSingle(t, s, linalg.Vec{3.0, 1.5}, 0)
	wantTarget := 1.5 + 1.4*math.Tanh(10*(3.0-1.5)/1.4)
	want := (1.5 - wantTarget) / 1e3
	if math.Abs(f[1]-want) > 1e-12 {
		t.Fatalf("summer out current = %g, want %g", f[1], want)
	}
}

func TestSummerNotGateInverts(t *testing.T) {
	// Weight −1 around Mid: in = Mid+0.5 → target = Mid−(≈0.5 limited).
	s := &device.Summer{Name: "not", Inputs: []circuit.NodeID{0}, Weights: []float64{-1},
		Out: 1, Mid: 1.5, Swing: 1.4, Rout: 1e3}
	f := evalSingle(t, s, linalg.Vec{2.0, 1.5}, 0)
	wantTarget := 1.5 + 1.4*math.Tanh(-0.5/1.4)
	want := (1.5 - wantTarget) / 1e3
	if math.Abs(f[1]-want) > 1e-12 {
		t.Fatalf("not-gate current = %g, want %g", f[1], want)
	}
}

// A summer whose inputs and weights differ in length fails Assemble with
// an error naming it, before any evaluation.
func TestSummerLengthMismatchFailsAssemble(t *testing.T) {
	c := circuit.New()
	a, out := c.Node("a"), c.Node("out")
	c.Add(&device.Summer{Name: "bad", Inputs: []circuit.NodeID{a, circuit.Ground}, Weights: []float64{1},
		Out: out, Mid: 1.5, Swing: 1.4, Rout: 1e3})
	if _, err := c.Assemble(); err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("Assemble error = %v, want one naming the summer", err)
	}
}

func TestTransGateOnOff(t *testing.T) {
	c := circuit.New()
	en := c.AddDCRail("en", 3.0)
	a, b := c.Node("a"), c.Node("b")
	tg := &device.TransGate{Name: "tg", A: a, B: b, Ctrl: en, Ron: 1e3, Roff: 1e11}
	c.Gmin = 0
	c.Add(tg)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	f := sys.EvalF(linalg.Vec{1, 0}, 0, nil)
	if math.Abs(f[0]-1e-3) > 1e-5 {
		t.Fatalf("on-state current = %g, want ~1 mA", f[0])
	}
	// Off state.
	c2 := circuit.New()
	en2 := c2.AddDCRail("en", 0.0)
	a2, b2 := c2.Node("a"), c2.Node("b")
	c2.Gmin = 0
	c2.Add(&device.TransGate{Name: "tg", A: a2, B: b2, Ctrl: en2, Ron: 1e3, Roff: 1e11})
	sys2, err := c2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	f2 := sys2.EvalF(linalg.Vec{1, 0}, 0, nil)
	if f2[0] > 1e-10 {
		t.Fatalf("off-state current = %g, want ≤ 0.1 nA", f2[0])
	}
}

func TestVCCS(t *testing.T) {
	v := &device.VCCS{Name: "g", CtrlP: 0, CtrlN: circuit.Ground, OutP: 1, OutN: circuit.Ground, Gm: 1e-3}
	f := evalSingle(t, v, linalg.Vec{2, 0}, 0)
	if math.Abs(f[1]-2e-3) > 1e-15 {
		t.Fatalf("VCCS out current = %g, want 2 mA", f[1])
	}
}
