package device_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/ringosc"
)

// toReference swaps every MOSFET and TransGate of an assembled system for
// its reference stamp. It edits the circuit's device slice in place, so it
// is only for a private copy built for the comparison.
func toReference(sys *circuit.System) (swapped int) {
	devs := sys.Ckt.Devices()
	for i, d := range devs {
		switch d := d.(type) {
		case *device.MOSFET:
			devs[i] = device.RefMOSFET{MOSFET: d}
			swapped++
		case *device.TransGate:
			devs[i] = device.RefTransGate{TransGate: d}
			swapped++
		}
	}
	return swapped
}

// TestStampsBitIdenticalToReference is the device and circuit layers'
// bit-identity contract: at random (x, t) on the ring, D-latch and serial
// adder circuits, Workspace.EvalFJ with the closure-free MOSFET stamp, the
// single-log TransGate and the rail memo yields exactly the bits of the
// reference stamps evaluated through System.EvalFJ, which reads every rail
// afresh. Times repeat within a workspace so the memo serves hits too.
func TestStampsBitIdenticalToReference(t *testing.T) {
	const f1 = 9.6e3
	type build func() (*circuit.System, error)
	circuits := map[string]build{
		"ring": func() (*circuit.System, error) {
			r, err := ringosc.Build(ringosc.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return r.Sys, nil
		},
		"latch": func() (*circuit.System, error) {
			cfg := ringosc.DefaultLatchConfig(f1)
			cfg.SyncAmp, cfg.DAmp, cfg.DFlipTime = 120e-6, 150e-6, 40/f1
			l, err := ringosc.BuildLatch(cfg)
			if err != nil {
				return nil, err
			}
			return l.Sys, nil
		},
		// A transmission gate whose control is a free node (the circuits
		// above drive theirs from rails, which drop the dg stamp), and
		// MOSFETs of both polarities with unsmoothed cutoff.
		"free-control": func() (*circuit.System, error) {
			c := circuit.New()
			vdd := c.AddDCRail("vdd", 3)
			a, b, g := c.Node("a"), c.Node("b"), c.Node("g")
			hard := device.ALD1106()
			hard.SmoothVov = 0
			c.Add(
				&device.TransGate{Name: "tg", A: a, B: b, Ctrl: g, Ron: 1e3, Roff: 1e11, Von: 2, Voff: 1},
				&device.MOSFET{Name: "mn", D: a, G: g, S: circuit.Ground, Params: hard, Mult: 2},
				&device.MOSFET{Name: "mp", D: b, G: g, S: vdd, Params: device.ALD1107(), PMOS: true},
				&device.Resistor{Name: "r", A: g, B: vdd, R: 1e4},
			)
			return c.Assemble()
		},
		"adder": func() (*circuit.System, error) {
			ac, err := ringosc.BuildSerialAdderCircuit(ringosc.AdderCircuitConfig{
				F1: f1, SyncAmp: 120e-6, SyncPhase: 0.1, InputAmp: 0.8, OutAngle: 0.3,
				CouplingR: 20e3, CouplingC: 1e-9, ClockCycles: 4,
				ABits: []bool{true, false, true}, BBits: []bool{false, true, true},
			})
			if err != nil {
				return nil, err
			}
			return ac.Sys, nil
		},
	}
	for name, mk := range circuits {
		t.Run(name, func(t *testing.T) {
			sys, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if toReference(ref) == 0 {
				t.Fatal("circuit has no MOSFET or TransGate to compare")
			}
			n := sys.N
			ws := sys.NewWorkspace()
			f, j := linalg.NewVec(n), linalg.NewMat(n, n)
			fr, jr := linalg.NewVec(n), linalg.NewMat(n, n)
			x := linalg.NewVec(n)
			r := rand.New(rand.NewSource(7))
			tt := 0.0
			for trial := 0; trial < 2000; trial++ {
				for i := range x {
					x[i] = 3.6*r.Float64() - 0.3 // spans cutoff, triode, saturation and reversal
				}
				if r.Intn(3) > 0 { // otherwise re-evaluate at the memo's time
					tt = 8 / f1 * r.Float64()
				}
				ws.EvalFJ(x, tt, f, j)
				ref.EvalFJ(x, tt, fr, jr)
				for i := range fr {
					if math.Float64bits(f[i]) != math.Float64bits(fr[i]) {
						t.Fatalf("trial %d: f[%d] = %x, reference %x", trial, i, f[i], fr[i])
					}
				}
				for i := range jr.Data {
					if math.Float64bits(j.Data[i]) != math.Float64bits(jr.Data[i]) {
						t.Fatalf("trial %d: J[%d] = %x, reference %x", trial, i, j.Data[i], jr.Data[i])
					}
				}
			}
		})
	}
}
