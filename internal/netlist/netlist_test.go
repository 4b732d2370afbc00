package netlist_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := map[string]float64{
		"4.7n": 4.7e-9, "100u": 1e-4, "1k": 1e3, "10meg": 1e7,
		"1m": 1e-3, "2.5": 2.5, "100g": 1e11, "3p": 3e-12, "1f": 1e-15,
		"1t": 1e12, "-5u": -5e-6,
	}
	for in, want := range cases {
		got, err := netlist.ParseValue(in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", in, err)
			continue
		}
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("ParseValue(%q) = %g, want %g", in, got, want)
		}
	}
	if _, err := netlist.ParseValue("abc"); err == nil {
		t.Error("garbage must fail")
	}
}

// dividerDeck is a resistive divider with text after its .end.
const dividerDeck = `
* resistive divider
.rail vdd 3.0
R1 vdd mid 1k
R2 mid 0 2k
.end
ignored garbage after .end
`

func TestParseDividerAndSolve(t *testing.T) {
	ckt, err := netlist.Parse(dividerDeck)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	x, err := solver.DCOperatingPointCtx(context.Background(), sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[ckt.NodeIndex("mid")]-2.0) > 1e-6 {
		t.Errorf("divider = %g, want 2", x[0])
	}
}

func TestParseParams(t *testing.T) {
	src := `
.param rload=5k
R1 a 0 {rload}
`
	ckt, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := ckt.Devices()[0].(interface{ Label() string })
	if !ok || r.Label() != "R1" {
		t.Fatal("device missing")
	}
}

func TestParseRingOscillatorDeck(t *testing.T) {
	// The paper's Fig. 3 ring as a netlist; PSS must find ≈9.6 kHz, same as
	// the programmatic builder.
	src := `
* 3-stage ring oscillator, ALD1106/07, C = 4.7 nF
.rail vdd 3.0
Mn1 n1 n3 0   nmos model=ald1106
Mp1 n1 n3 vdd pmos model=ald1107
C1  n1 0 4.7n
Mn2 n2 n1 0   nmos model=ald1106
Mp2 n2 n1 vdd pmos model=ald1107
C2  n2 0 4.7n
Mn3 n3 n2 0   nmos model=ald1106
Mp3 n3 n2 vdd pmos model=ald1107
C3  n3 0 4.7n
.end
`
	ckt, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if sys.N != 3 {
		t.Fatalf("ring deck has %d nodes, want 3", sys.N)
	}
	// Borrow the programmatic builder's kick start.
	r, _ := ringosc.Build(ringosc.DefaultConfig())
	x0 := linalg.Vec(r.KickStart())
	sol, err := pss.ShootAutonomousCtx(context.Background(), sys, x0, pss.Options{GuessT: 1 / 9.6e3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.F0 < 9.3e3 || sol.F0 > 9.9e3 {
		t.Errorf("netlist ring f0 = %g", sol.F0)
	}
}

func TestParseSources(t *testing.T) {
	src := `
I1 0 a dc 1m
I2 0 a sin(100u 9.6k 0.25)
I3 0 a 2m
`
	ckt, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckt.Devices()) != 3 {
		t.Fatalf("want 3 sources, got %d", len(ckt.Devices()))
	}
	sys, err := ckt.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	f := sys.EvalF(linalg.Vec{0}, 0, nil)
	// At t=0: dc 1m + sin at quarter phase (0) + dc 2m, all INTO a → f = -3m.
	if math.Abs(f[0]+3e-3) > 1e-9 {
		t.Errorf("f = %g, want -3e-3", f[0])
	}
}

func TestParseRailWaveforms(t *testing.T) {
	src := `
.rail en pulse(0 3 1m 10u 10u 2m 5m)
.rail ref sin(1.5 1.5 1k 0)
R1 en a 1k
R2 ref a 1k
`
	ckt, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	en := ckt.Node("en")
	ref := ckt.Node("ref")
	if v := ckt.RailVoltage(en, 2e-3); math.Abs(v-3) > 1e-9 {
		t.Errorf("pulse mid = %g", v)
	}
	if v := ckt.RailVoltage(ref, 0); math.Abs(v-3) > 1e-9 {
		t.Errorf("sin rail peak = %g", v)
	}
	if v := ckt.RailVoltage(ref, 0.5e-3); math.Abs(v-0) > 1e-9 {
		t.Errorf("sin rail trough = %g", v)
	}
}

// A .rail naming a node an earlier line already made free is refused with
// an error; before, the circuit panicked on the untrusted-deck path.
func TestParseRailOnFreeNodeErrors(t *testing.T) {
	if _, err := netlist.Parse("C1 x en 1u\n.rail en 3\nR1 x 0 1k\n"); err == nil {
		t.Fatal("a .rail on a free node parsed")
	}
}

// A .rail named after ground is refused: Node maps the name to ground, so
// the declared potential would be dropped without a word (x would solve to
// 0 V in ".rail gnd 3 / R1 gnd x 1k / R2 x 0 1k").
func TestParseRailNamedGroundErrors(t *testing.T) {
	for _, name := range []string{"0", "gnd", "GND"} {
		if _, err := netlist.Parse(".rail " + name + " 3\nR1 " + name + " x 1k\nR2 x 0 1k\n"); err == nil {
			t.Errorf(".rail %s parsed", name)
		}
	}
}

// A capacitor to a sin(...) rail injects C·dV/dt from the waveform's exact
// derivative, not a difference quotient.
func TestParseSinRailCapInjectsExactSlope(t *testing.T) {
	ckt, err := netlist.Parse(".rail ref sin(1.5 1.5 1k 0.1)\nC1 x ref 1u\nR1 x 0 1k\n")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 0.13e-3, 0.61e-3, 2.37e-3} {
		want := -2 * math.Pi * 1e3 * 1.5 * math.Sin(2*math.Pi*(1e3*tt+0.1))
		got := -sys.EvalF(linalg.Vec{0}, tt, nil)[0] / 1e-6
		if math.Abs(got-want) > 1e-13*2*math.Pi*1e3*1.5 {
			t.Errorf("t = %g: injected C·dV/dt gives dV/dt = %.17g, want %.17g", tt, got, want)
		}
	}
}

// A rail registered again takes the new waveform whole: its dV/dt is the
// new ramp's, not the 0 of the DC rail it replaced, so a capacitor to it
// injects current.
func TestParseRailReRegistrationTakesNewSlope(t *testing.T) {
	ckt, err := netlist.Parse(".rail en 3\n.rail en pulse(0 3 1m 10u 10u 5m 10m)\nC1 x en 1u\nR1 x 0 1k\n")
	if err != nil {
		t.Fatal(err)
	}
	if d := ckt.RailDVDt(ckt.Node("en"), 1.005e-3); math.Abs(d-3e5) > 1e-6*3e5 {
		t.Fatalf("dV/dt on the rise = %g V/s, want 3e5", d)
	}
}

func TestParseSummerAndTgate(t *testing.T) {
	src := `
.rail vdd 3.0
S1 out mid=1.5 swing=1.4 rout=10k in=a:1 in=b:-2
T1 out c vdd ron=1k roff=100g
`
	ckt, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckt.Devices()) != 2 {
		t.Fatalf("want 2 devices, got %d", len(ckt.Devices()))
	}
	if _, err := ckt.Assemble(); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"R1 a b",            // missing value
		"Q1 a b c",          // unknown element
		"M1 a b c njfet",    // bad type
		".rail vdd",         // missing value
		"I1 0 a sin(1)",     // too few sin args
		"S1 out mid=1.5",    // no inputs
		".bogus 1",          // unknown directive
		"T1 a b c ron",      // bad key=value
		"M1 d g s nmos vt0", // bad key=value
		"R1 a b 1z2",        // bad number
	}
	for _, src := range bad {
		if _, err := netlist.Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseDrivenDecks: a deck whose rails are plain values and whose
// sources are DC is autonomous — `.rail vdd 3.0` registers a DC rail —
// while a waveform rail or a sine source makes it driven.
func TestParseDrivenDecks(t *testing.T) {
	for _, c := range []struct {
		deck   string
		driven bool
	}{
		{".rail vdd 3.0\nR1 vdd a 1k\nI1 0 a dc 1m\nI2 0 a 2m\n", false},
		{".rail vdd 3.0\n.rail en pulse(0 3 1m 10u 10u 2m 5m)\nR1 en a 1k\n", true},
		{".rail ref sin(1.5 1.5 1k 0)\nR1 ref a 1k\n", true},
		{".rail vdd 3.0\nR1 vdd a 1k\nI1 0 a sin(100u 9.6k 0.25)\n", true},
	} {
		ckt, err := netlist.Parse(c.deck)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := ckt.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Driven() != c.driven {
			t.Errorf("%q: Driven() = %v, want %v", c.deck, sys.Driven(), c.driven)
		}
	}
}
