package device_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/ringosc"
)

// oracleLanes is the lane count of the batched leg of the oracle.
const oracleLanes = 3

// oracleCircuits builds, for lane k, one corner of each circuit the oracle
// covers; parameters vary with k, topology does not.
func oracleCircuits() map[string]func(k int) (*circuit.System, error) {
	const f1 = 9.6e3
	return map[string]func(k int) (*circuit.System, error){
		"ring": func(k int) (*circuit.System, error) {
			cfg := ringosc.DefaultConfig()
			cfg.NMOS.Beta *= 1 + 0.05*float64(k)
			cfg.PMOS.VT0 *= 1 - 0.02*float64(k)
			r, err := ringosc.Build(cfg)
			if err != nil {
				return nil, err
			}
			return r.Sys, nil
		},
		"latch": func(k int) (*circuit.System, error) {
			cfg := ringosc.DefaultLatchConfig(f1)
			cfg.SyncAmp, cfg.DAmp, cfg.DFlipTime = 120e-6, (150+10*float64(k))*1e-6, 40/f1
			cfg.TGateRon *= 1 + 0.1*float64(k)
			l, err := ringosc.BuildLatch(cfg)
			if err != nil {
				return nil, err
			}
			return l.Sys, nil
		},
		"adder": func(k int) (*circuit.System, error) {
			ac, err := ringosc.BuildSerialAdderCircuit(ringosc.AdderCircuitConfig{
				F1: f1, SyncAmp: 120e-6, SyncPhase: 0.1 + 0.05*float64(k), InputAmp: 0.8, OutAngle: 0.3,
				CouplingR: 20e3 * (1 + 0.1*float64(k)), CouplingC: 1e-9, ClockCycles: 4,
				ABits: []bool{true, false, true}, BBits: []bool{false, true, true},
			})
			if err != nil {
				return nil, err
			}
			return ac.Sys, nil
		},
		// A transmission gate whose control is a free node (the circuits
		// above drive theirs from rails, which drop the dg stamp), and
		// MOSFETs of both polarities with unsmoothed cutoff.
		"free-control": func(k int) (*circuit.System, error) {
			sc := 1 + 0.1*float64(k)
			c := circuit.New()
			vdd := c.AddDCRail("vdd", 3)
			a, b, g := c.Node("a"), c.Node("b"), c.Node("g")
			hard := device.ALD1106()
			hard.SmoothVov = 0
			hard.Beta *= sc
			c.Add(
				&device.TransGate{Name: "tg", A: a, B: b, Ctrl: g, Ron: 1e3 * sc, Roff: 1e11, Von: 2, Voff: 1},
				&device.MOSFET{Name: "mn", D: a, G: g, S: circuit.Ground, Params: hard, Mult: 2},
				&device.MOSFET{Name: "mp", D: b, G: g, S: vdd, Params: device.ALD1107(), PMOS: true},
				&device.Resistor{Name: "r", A: g, B: vdd, R: 1e4 * sc},
			)
			return c.Assemble()
		},
		// Every device type, with terminals on free nodes, on a DC rail, on
		// moving rails and on ground: every source waveform, a summer with a
		// rail input, transmission gates on a rail and on a free control,
		// hard and smoothed MOSFETs of both polarities, and capacitors to a
		// moving rail (the rail-cap source terms).
		"every-kind": func(k int) (*circuit.System, error) {
			sc := 1 + 0.1*float64(k)
			c := circuit.New()
			vdd := c.AddDCRail("vdd", 3)
			clk := c.AddRail("clk", &circuit.Clock{Period: 1e-4, High: 3})
			swing := c.AddRail("swing", &circuit.Sine{Amp: 1, Freq: 2e4, Offset: 1, Flips: []float64{3e-5}})
			a, b, o, g, d := c.Node("a"), c.Node("b"), c.Node("o"), c.Node("g"), c.Node("d")
			hard := device.ALD1107()
			hard.SmoothVov = 0
			c.Add(
				&device.Resistor{Name: "rl", A: vdd, B: a, R: 10e3 * sc},
				&device.MOSFET{Name: "mn", D: a, G: b, S: circuit.Ground, Params: device.ALD1106(), Mult: sc},
				&device.MOSFET{Name: "mp", D: d, G: clk, S: vdd, Params: hard, PMOS: true},
				&device.Conductor{Name: "gx", A: a, B: b, G: 1e-5 * sc},
				&device.VCCS{Name: "vc", CtrlP: a, CtrlN: swing, OutP: b, OutN: circuit.Ground, Gm: 2e-5 * sc},
				&device.Capacitor{Name: "ca", A: a, B: circuit.Ground, C: 1e-9 * sc},
				&device.Capacitor{Name: "cs", A: swing, B: o, C: 2e-9 * sc},
				&device.Capacitor{Name: "cc", A: d, B: clk, C: 1e-9},
				&device.CurrentSource{Name: "inj", From: circuit.Ground, To: b,
					Wave: &circuit.Sine{Amp: 1e-6 * sc, Freq: 10e3, Phase: 0.1, Offset: 1e-7}},
				&device.TransGate{Name: "tgf", A: a, B: o, Ctrl: b, Ron: 1e3 * sc, Roff: 1e11},
				&device.TransGate{Name: "tgr", A: o, B: g, Ctrl: clk, Ron: 2e3, Roff: 1e10 * sc, Von: 2, Voff: 0.5},
				&device.Summer{Name: "sum", Inputs: []circuit.NodeID{a, b, vdd, clk}, Weights: []float64{1, -0.5 * sc, 0.25, 0.1},
					Out: g, Mid: 1.5, Swing: 1.2 * sc, Rout: 100 * sc},
				device.DCCurrent("idc", d, circuit.Ground, 1e-6*sc),
				&device.CurrentSource{Name: "icos", From: vdd, To: d, Wave: &circuit.Sine{Amp: 2e-6 * sc, Freq: 3e3}},
				&device.CurrentSource{Name: "ipulse", From: o, To: circuit.Ground,
					Wave: &circuit.Pulse{V1: -1e-6, V2: 1e-6 * sc, Delay: 1e-5, Rise: 1e-4, Fall: 2e-5, Width: 5e-5, Period: 3e-4}},
			)
			return c.Assemble()
		},
	}
}

// TestStampsBitIdenticalToReference is the device and circuit layers'
// bit-identity contract: at random (x, t), every kernel yields exactly the
// bits of the reference stamps (RefEval, which reads every rail and source
// afresh). It checks one lane (Workspace.EvalScaled on the pattern, and
// EvalFJ scattered to n×n) and a batch of lanes with different parameters
// at a shared time (EvalFJBatch, EvalFBatch) and at per-lane times
// (EvalBatchAt); f-only and f+J evaluations; unit and non-unit GminScale
// and SourceScale on the single lane, unit ones on EvalFJ and the batch.
// Times repeat, so the time memos serve hits as well as misses.
func TestStampsBitIdenticalToReference(t *testing.T) {
	for name, mk := range oracleCircuits() {
		t.Run(name, func(t *testing.T) {
			lanes := make([]*circuit.System, oracleLanes)
			for k := range lanes {
				var err error
				if lanes[k], err = mk(k); err != nil {
					t.Fatal(err)
				}
			}
			sys, n := lanes[0], lanes[0].N
			b, err := circuit.NewBatch(lanes)
			if err != nil {
				t.Fatal(err)
			}
			ws, bw := sys.NewWorkspace(), b.NewWorkspace()
			f, j, fr, jr := linalg.NewVec(n), linalg.NewMat(n, n), linalg.NewVec(n), linalg.NewMat(n, n)
			sj, sjd := sparse.NewCSC(sys.SparsePattern()), linalg.NewMat(n, n)
			x, tl := make([]float64, oracleLanes*n), make([]float64, oracleLanes)
			r := rand.New(rand.NewSource(7))
			tt := 0.0
			for trial := 0; trial < 600; trial++ {
				for i := range x {
					x[i] = 3.6*r.Float64() - 0.3 // spans cutoff, triode, saturation and reversal
				}
				if r.Intn(3) > 0 { // otherwise re-evaluate at the memos' time
					tt = 8 / 9.6e3 * r.Float64()
				}
				gs, ss := 1.0, 1.0
				if trial%3 == 1 {
					gs, ss = 1e3, 0.37
				}
				wantJ := trial%4 != 3
				x0 := linalg.Vec(x[:n])
				refJ := jr
				if !wantJ {
					refJ = nil
				}
				ref := func(k int, at float64) {
					device.RefEval(lanes[k], linalg.Vec(x[k*n:(k+1)*n]), at, fr, refJ, gs, ss)
				}
				ref(0, tt)
				if wantJ {
					ws.EvalScaled(x0, tt, f, sj.Val, gs, ss)
					sameBits(t, trial, "lane J", sj.ToDense(sjd).Data, jr.Data)
				} else {
					ws.EvalScaled(x0, tt, f, nil, gs, ss)
				}
				sameBits(t, trial, "lane f", f, fr)
				if wantJ && gs == 1 && ss == 1 {
					ws.EvalFJ(x0, tt, f, j)
					sameBits(t, trial, "EvalFJ J", j.Data, jr.Data)
					sameBits(t, trial, "EvalFJ f", f, fr)
				}

				gs, ss = 1, 1
				switch {
				case trial%2 == 1:
					for k := range tl {
						tl[k] = tt
						if r.Intn(2) == 0 {
							tl[k] = 8 / 9.6e3 * r.Float64()
						}
					}
					bw.EvalBatchAt(x, tl, wantJ)
				case wantJ:
					bw.EvalFJBatch(x, tt)
				default:
					bw.EvalFBatch(x, tt)
				}
				for k := range lanes {
					at := tt
					if trial%2 == 1 {
						at = tl[k]
					}
					ref(k, at)
					sameBits(t, trial, "batch f", bw.LaneF(k), fr)
					if wantJ {
						sameBits(t, trial, "batch J", bw.LaneJDense(sjd, k).Data, jr.Data)
					}
				}
			}
		})
	}
}

func sameBits(t *testing.T, trial int, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("trial %d: %s[%d] = %x, reference %x", trial, what, i, got[i], want[i])
		}
	}
}
