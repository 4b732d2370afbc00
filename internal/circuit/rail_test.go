package circuit_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

// rampWave is a test waveform, V = slope·t.
type rampWave float64

func (r rampWave) V(t float64) float64 { return float64(r) * t }

func (r rampWave) DVDt(float64) float64 { return float64(r) }

// railCapSystem couples a 1 µF capacitor from the given rail into a resistive
// node, so f(n1) = −C·dVrail/dt exposes the rail's dV/dt directly.
func railCapSystem(t *testing.T, w circuit.Waveform) *circuit.System {
	t.Helper()
	c := circuit.New()
	c.ParasiticCap = 0
	rail := c.AddRail("rail", w)
	n1 := c.Node("n1")
	c.Add(
		&device.Capacitor{Name: "cc", A: rail, B: n1, C: 1e-6},
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// railDVDtOf recovers dVrail/dt from the assembled residual.
func railDVDtOf(sys *circuit.System, tt float64) float64 {
	f := sys.EvalF(linalg.Vec{0}, tt, nil)
	return -f[0] / 1e-6
}

// The rail tests below check that a capacitor to a moving rail injects
// C·dV/dt from the waveform's exact derivative, whatever the rail's time
// scale.

func TestRailTimeScaleSlowRail(t *testing.T) {
	// A Hz-scale modulated supply: V = 2.5 + 1e-3·sin(2π·0.5·t).
	sys := railCapSystem(t, &circuit.Sine{Amp: 1e-3, Freq: 0.5, Phase: -0.25, Offset: 2.5})
	const tt = 0.3
	want := 1e-3 * math.Pi * math.Cos(2*math.Pi*0.5*tt)
	if got := railDVDtOf(sys, tt); math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("dV/dt = %g, want %g", got, want)
	}
}

func TestRailTimeScaleFastRail(t *testing.T) {
	// A GHz rail, where a fixed 1 ns difference step would span a whole
	// period and alias the derivative to ≈ 0.
	sys := railCapSystem(t, &circuit.Sine{Amp: 1, Freq: 1e9, Phase: -0.25})
	const tt = 0.2e-9
	want := 2 * math.Pi * 1e9 * math.Cos(2*math.Pi*1e9*tt)
	if got := railDVDtOf(sys, tt); math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("dV/dt = %g, want %g", got, want)
	}
}

func TestAddRailDerivAnalytic(t *testing.T) {
	// A waveform of the caller's own (a test ramp) injects its own dV/dt.
	if got := railDVDtOf(railCapSystem(t, rampWave(100)), 0.5); got != 100 {
		t.Fatalf("analytic dV/dt = %g, want exactly 100", got)
	}
}

// TestDrivenRecordsTimeVarying: a System is driven when some rail or source
// waveform is not DC — a waveform rail of any kind (or a DC rail
// re-registered with one), a sine or pulse source, a source with a test
// waveform of its own — and not when its rails and sources are all DC.
func TestDrivenRecordsTimeVarying(t *testing.T) {
	for _, c := range []struct {
		name   string
		build  func(c *circuit.Circuit, n circuit.NodeID)
		driven bool
	}{
		{"dc", func(c *circuit.Circuit, n circuit.NodeID) {
			c.AddDCRail("vdd", 3)
			c.AddRail("en", circuit.DC(0))
			c.Add(device.DCCurrent("i", circuit.Ground, n, 1e-3))
		}, false},
		{"sine rail", func(c *circuit.Circuit, n circuit.NodeID) { c.AddRail("en", &circuit.Sine{Amp: 1, Freq: 1e3}) }, true},
		{"clock rail", func(c *circuit.Circuit, n circuit.NodeID) { c.AddRail("clk", &circuit.Clock{Period: 1e-3, High: 3}) }, true},
		{"test rail", func(c *circuit.Circuit, n circuit.NodeID) { c.AddRail("en", rampWave(1)) }, true},
		{"dc rail re-registered", func(c *circuit.Circuit, n circuit.NodeID) {
			c.AddDCRail("en", 3)
			c.AddRail("en", &circuit.Pulse{V2: 3, Rise: 1e-3, Width: 1e-3, Fall: 1e-3})
		}, true},
		{"sine source", func(c *circuit.Circuit, n circuit.NodeID) {
			c.Add(&device.CurrentSource{Name: "i", To: n, Wave: &circuit.Sine{Amp: 1e-3, Freq: 1e3}})
		}, true},
		{"pulse source", func(c *circuit.Circuit, n circuit.NodeID) {
			c.Add(&device.CurrentSource{Name: "i", To: n, Wave: &circuit.Pulse{V2: 1e-3, Rise: 1}})
		}, true},
		{"test source", func(c *circuit.Circuit, n circuit.NodeID) {
			c.Add(&device.CurrentSource{Name: "i", To: n, Wave: rampWave(1)})
		}, true},
	} {
		ckt := circuit.New()
		n := ckt.Node("n1")
		ckt.Add(&device.Resistor{Name: "r", A: n, B: circuit.Ground, R: 1e3})
		c.build(ckt, n)
		sys, err := ckt.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Driven() != c.driven {
			t.Errorf("%s: Driven() = %v, want %v", c.name, sys.Driven(), c.driven)
		}
	}
}

// TestAddRailRefusesGround: a rail named after ground would be dropped by
// Node, which maps the name to ground first, so registering one panics.
func TestAddRailRefusesGround(t *testing.T) {
	for _, name := range []string{"0", "gnd", "GND"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddRail(%q): no panic", name)
				}
			}()
			circuit.New().AddRail(name, circuit.DC(3))
		}()
	}
}
