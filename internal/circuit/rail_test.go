package circuit_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

// railCapSystem couples a 1 µF capacitor from the given rail into a resistive
// node, so f(n1) = −C·dVrail/dt exposes railDVDt directly.
func railCapSystem(t *testing.T, build func(c *circuit.Circuit) circuit.NodeID) *circuit.System {
	t.Helper()
	c := circuit.New()
	c.ParasiticCap = 0
	rail := build(c)
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

func TestRailTimeScaleSlowRail(t *testing.T) {
	// A Hz-scale modulated supply: V = 2.5 + 1e-3·sin(2π·0.5·t). With the
	// 2 s period declared, the central-difference step scales to the
	// waveform instead of the legacy fixed 1 ns.
	v := func(tt float64) float64 { return 2.5 + 1e-3*math.Sin(2*math.Pi*0.5*tt) }
	sys := railCapSystem(t, func(c *circuit.Circuit) circuit.NodeID {
		id := c.AddRail("mod", v)
		c.SetRailTimeScale(id, 2.0)
		return id
	})
	const tt = 0.3
	want := 1e-3 * math.Pi * math.Cos(2*math.Pi*0.5*tt)
	got := railDVDtOf(sys, tt)
	if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-4 {
		t.Fatalf("dV/dt = %g, want %g (rel err %g)", got, want, rel)
	}
}

func TestRailTimeScaleFastRail(t *testing.T) {
	// A GHz rail breaks the legacy absolute step completely: h = 1 ns spans
	// exactly one period, so the central difference aliases to ≈ 0. Declaring
	// the 1 ns timescale shrinks h to 1 ps and recovers the derivative.
	v := func(tt float64) float64 { return math.Sin(2 * math.Pi * 1e9 * tt) }
	const tt = 0.2e-9
	want := 2 * math.Pi * 1e9 * math.Cos(2*math.Pi*1e9*tt)

	legacy := railCapSystem(t, func(c *circuit.Circuit) circuit.NodeID {
		return c.AddRail("rf", v)
	})
	if got := railDVDtOf(legacy, tt); math.Abs(got) > 0.01*math.Abs(want) {
		t.Fatalf("legacy absolute step should alias the GHz rail derivative to ~0, got %g (true %g)", got, want)
	}

	scaled := railCapSystem(t, func(c *circuit.Circuit) circuit.NodeID {
		id := c.AddRail("rf", v)
		c.SetRailTimeScale(id, 1e-9)
		return id
	})
	if got := railDVDtOf(scaled, tt); math.Abs(got-want)/math.Abs(want) > 1e-3 {
		t.Fatalf("scaled step dV/dt = %g, want %g", got, want)
	}
}

func TestAddRailDerivAnalytic(t *testing.T) {
	// An analytic derivative bypasses differencing entirely and is exact.
	sys := railCapSystem(t, func(c *circuit.Circuit) circuit.NodeID {
		return c.AddRailDeriv("ramp",
			func(tt float64) float64 { return 100 * tt },
			func(tt float64) float64 { return 100 },
		)
	})
	if got := railDVDtOf(sys, 0.5); got != 100 {
		t.Fatalf("analytic dV/dt = %g, want exactly 100", got)
	}
}

func TestSetRailTimeScalePanics(t *testing.T) {
	c := circuit.New()
	id := c.AddRail("r", func(float64) float64 { return 0 })
	n := c.Node("n")
	for name, fn := range map[string]func(){
		"free node": func() { c.SetRailTimeScale(n, 1) },
		"ground":    func() { c.SetRailTimeScale(circuit.Ground, 1) },
		"zero tau":  func() { c.SetRailTimeScale(id, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestDrivenRecordsTimeVarying: a System is driven when any rail or
// source varies in time — a waveform rail (AddRail, AddRailDeriv, or a DC
// rail re-registered with a waveform), a sine or PWL source, a current
// source with its own I — and not when its rails are DC rails and its
// sources DC sources.
func TestDrivenRecordsTimeVarying(t *testing.T) {
	wave := func(t float64) float64 { return t }
	for _, c := range []struct {
		name   string
		build  func(c *circuit.Circuit, n circuit.NodeID)
		driven bool
	}{
		{"dc", func(c *circuit.Circuit, n circuit.NodeID) {
			c.AddDCRail("vdd", 3)
			c.Add(device.DCCurrent("i", circuit.Ground, n, 1e-3))
		}, false},
		{"rail", func(c *circuit.Circuit, n circuit.NodeID) { c.AddRail("en", wave) }, true},
		{"rail deriv", func(c *circuit.Circuit, n circuit.NodeID) { c.AddRailDeriv("en", wave, wave) }, true},
		{"dc rail re-registered", func(c *circuit.Circuit, n circuit.NodeID) {
			c.AddDCRail("en", 3)
			c.AddRail("en", wave)
		}, true},
		{"sine", func(c *circuit.Circuit, n circuit.NodeID) {
			c.Add(&device.SineCurrent{Name: "i", To: n, Amp: 1e-3, Freq: 1e3})
		}, true},
		{"pwl", func(c *circuit.Circuit, n circuit.NodeID) {
			c.Add(&device.PWLCurrent{Name: "i", To: n, Times: []float64{0, 1}, Values: []float64{0, 1e-3}})
		}, true},
		{"waveform source", func(c *circuit.Circuit, n circuit.NodeID) {
			c.Add(&device.CurrentSource{Name: "i", To: n, I: wave})
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
