package phlogic

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// CircuitConfig sizes the transistor-level lowering of a Program: every IR
// latch becomes a master–slave pair of ring-oscillator D latches (with
// transmission-gate clocking and series-RC coupling networks), every MAJ /
// NOT gate an op-amp summer, and the inputs phase-encoded voltage rails.
// The phase conventions (SyncPhase, OutAngle, CouplingR/C/Invert) come from
// phasemacro.Calibrate + ringosc.CouplingFromCalibration, exactly as for
// the hand-built serial adder circuit.
type CircuitConfig struct {
	Ring      ringosc.Config
	F1        float64
	SyncAmp   float64
	SyncPhase float64 // cycles

	InputAmp float64 // V, input-rail fundamental amplitude
	OutAngle float64 // radians, logic-1 angle (∠OutPhasor0)

	CouplingR, CouplingC float64
	Invert               bool

	GateSwing float64 // summer saturation half-swing, V (default InputAmp)
	GateRout  float64 // summer output resistance, Ω (default 100)
	// GateGain is the restoring pre-gain of every gate summer (default 2):
	// it keeps the fundamental near full swing through deep gate chains at
	// the cost of a squarer waveform.
	GateGain float64

	ClockCycles         float64 // reference cycles per CLK period (default 120)
	TGateRon, TGateRoff float64
}

// LogicCircuit is a Program lowered to a transistor-level circuit.
type LogicCircuit struct {
	Prog *Program
	Cfg  CircuitConfig
	Ckt  *circuit.Circuit
	Sys  *circuit.System
	// OutNodes[i] is the free-node index carrying output i's waveform;
	// OutIsLatch marks outputs read from a slave latch ring (valid late in
	// the clock period) rather than a combinational gate.
	OutNodes   []int
	OutIsLatch []bool
	// RefNode carries the buffered logic-1 reference the pairwise phase
	// detectors decode against.
	RefNode     int
	ClockPeriod float64

	nBits int
}

// LowerCircuit lowers a netlist to the transistor level, with streams[i]
// (LSB first, one bit per clock period, BitStream timing) driving input i.
// Combinational blocks take single-bit streams — a constant word.
func LowerCircuit(n *Netlist, streams [][]bool, cfg CircuitConfig) (*LogicCircuit, error) {
	prog, err := n.Compile()
	if err != nil {
		return nil, err
	}
	if len(streams) != len(prog.Inputs) {
		return nil, fmt.Errorf("phlogic: %d streams for %d inputs", len(streams), len(prog.Inputs))
	}
	nBits := 0
	for i, s := range streams {
		if len(s) == 0 {
			return nil, fmt.Errorf("phlogic: empty stream for input %d", i)
		}
		if nBits == 0 {
			nBits = len(s)
		} else if len(s) != nBits {
			return nil, fmt.Errorf("phlogic: stream lengths differ (%d vs %d)", nBits, len(s))
		}
	}
	if cfg.Ring.Stages == 0 {
		cfg.Ring = ringosc.DefaultConfig()
	}
	if cfg.TGateRon == 0 {
		cfg.TGateRon = 1e3
	}
	if cfg.TGateRoff == 0 {
		cfg.TGateRoff = 100e9
	}
	if cfg.GateRout == 0 {
		cfg.GateRout = 100
	}
	if cfg.GateSwing == 0 {
		cfg.GateSwing = cfg.InputAmp
	}
	if cfg.GateGain == 0 {
		cfg.GateGain = 2
	}
	if cfg.ClockCycles == 0 {
		cfg.ClockCycles = 120
	}
	vddV := cfg.Ring.Vdd
	mid := vddV / 2
	period := cfg.ClockCycles / cfg.F1

	lc := &LogicCircuit{Prog: prog, Cfg: cfg, ClockPeriod: period, nBits: nBits}
	ckt := circuit.New()
	lc.Ckt = ckt
	vdd := ckt.AddDCRail("vdd", vddV)

	// --- net → node map: constants and inputs are phase-encoded rails ---
	netNode := make([]circuit.NodeID, len(prog.Nets))
	encode := func(bits []bool) *circuit.Sine {
		return ringosc.PhaseEncoded(bits, mid, cfg.InputAmp, cfg.F1, cfg.OutAngle, period)
	}
	netNode[0] = ckt.AddRail("const0", encode([]bool{false}))
	netNode[1] = ckt.AddRail("const1", encode([]bool{true}))
	for i, net := range prog.Inputs {
		netNode[net] = ckt.AddRail("in_"+prog.Nets[net], encode(streams[i]))
	}

	// --- clock rails (only sequential netlists pay for them) ---
	var clk, clkb circuit.NodeID
	if len(prog.Latches) > 0 {
		clk = ckt.AddRail("clk", &circuit.Clock{Period: period, High: vddV})
		clkb = ckt.AddRail("clkb", &circuit.Clock{Period: period, High: vddV, Inverted: true})
	}

	// Pre-resolve every remaining net to its node name (Node is idempotent,
	// so the device builders below get the same IDs): a latch q net lives on
	// its slave ring's observed node, a gate output on its summer node. This
	// lets couplings and gates reference each other in either direction.
	for _, l := range prog.Latches {
		netNode[l.Q] = ckt.Node("s_" + l.Name + "_1")
	}
	for _, op := range prog.Comb {
		netNode[op.Out] = ckt.Node("g_" + op.Name)
	}

	// --- latch rings ---
	sign := 1.0
	if cfg.Invert {
		sign = -1
	}
	buildRing := func(prefix string) []circuit.NodeID {
		nodes := make([]circuit.NodeID, cfg.Ring.Stages)
		for i := range nodes {
			nodes[i] = ckt.Node(fmt.Sprintf("%s%d", prefix, i+1))
		}
		for i := range nodes {
			in := nodes[(i+len(nodes)-1)%len(nodes)]
			out := nodes[i]
			ckt.Add(
				&device.MOSFET{Name: fmt.Sprintf("%smn%d", prefix, i+1), D: out, G: in,
					S: circuit.Ground, Params: cfg.Ring.NMOS, Mult: cfg.Ring.NMOSMult},
				&device.MOSFET{Name: fmt.Sprintf("%smp%d", prefix, i+1), D: out, G: in,
					S: vdd, Params: cfg.Ring.PMOS, PMOS: true},
				&device.Capacitor{Name: fmt.Sprintf("%sc%d", prefix, i+1), A: out,
					B: circuit.Ground, C: cfg.Ring.CLoad},
			)
		}
		ckt.Add(&device.CurrentSource{
			Name: prefix + "sync", From: circuit.Ground, To: nodes[0],
			Wave: &circuit.Sine{Amp: cfg.SyncAmp, Freq: 2 * cfg.F1, Phase: cfg.SyncPhase},
		})
		return nodes
	}
	// coupling wires a buffered (sign-carrying) source through a clocked
	// transmission gate and the series-RC rotation network into a ring node.
	coupling := func(prefix string, from, to, gate circuit.NodeID) {
		buf := ckt.Node(prefix + "_buf")
		n1 := ckt.Node(prefix + "_x1")
		n2 := ckt.Node(prefix + "_x2")
		ckt.Add(
			&device.Summer{Name: prefix + "_gbuf", Inputs: []circuit.NodeID{from},
				Weights: []float64{sign}, Out: buf, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout},
			&device.TransGate{Name: prefix + "_tg", A: buf, B: n1, Ctrl: gate,
				Ron: cfg.TGateRon, Roff: cfg.TGateRoff, Von: 0.6 * vddV, Voff: 0.4 * vddV},
			&device.Resistor{Name: prefix + "_r", A: n1, B: n2, R: cfg.CouplingR},
			&device.Capacitor{Name: prefix + "_c", A: n2, B: to, C: cfg.CouplingC},
		)
	}
	for _, l := range prog.Latches {
		mNodes := buildRing("m_" + l.Name + "_")
		sNodes := buildRing("s_" + l.Name + "_")
		// D → master while CLK is high; master → slave while CLK is low.
		coupling("km_"+l.Name, netNode[l.D], mNodes[0], clk)
		coupling("ks_"+l.Name, mNodes[0], sNodes[0], clkb)
		netNode[l.Q] = sNodes[0]
	}

	// --- combinational gates: one summer per op, in dependency order ---
	for _, op := range prog.Comb {
		out := ckt.Node("g_" + op.Name)
		ins := make([]circuit.NodeID, len(op.In))
		w := make([]float64, len(op.In))
		for j, in := range op.In {
			ins[j] = netNode[in]
			w[j] = cfg.GateGain * op.Weights[j]
		}
		if op.Kind == OpNot {
			w[0] = -cfg.GateGain
		}
		ckt.Add(&device.Summer{Name: "g_" + op.Name, Inputs: ins, Weights: w,
			Out: out, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout})
		netNode[op.Out] = out
	}

	// --- the detectors' phase reference: a buffered logic-1 node ---
	refOut := ckt.Node("refout")
	ckt.Add(&device.Summer{Name: "g_refout", Inputs: []circuit.NodeID{netNode[1]},
		Weights: []float64{1}, Out: refOut, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout})
	lc.RefNode = int(refOut)

	for _, net := range prog.Outputs {
		lc.OutNodes = append(lc.OutNodes, int(netNode[net]))
		isLatch := false
		for _, l := range prog.Latches {
			if l.Q == net {
				isLatch = true
			}
		}
		lc.OutIsLatch = append(lc.OutIsLatch, isLatch)
	}

	sys, err := ckt.Assemble()
	if err != nil {
		return nil, err
	}
	lc.Sys = sys
	return lc, nil
}

// InitialState places every latch ring on the PSS orbit at the phase
// encoding the given state bit (master and slave together; logic 0 when
// state is nil) and every other node at the common-mode level.
func (lc *LogicCircuit) InitialState(sol *pss.Solution, state []bool) []float64 {
	x := make([]float64, lc.Sys.N)
	for i := range x {
		x[i] = lc.Cfg.Ring.Vdd / 2
	}
	for li, l := range lc.Prog.Latches {
		bit := false
		if li < len(state) {
			bit = state[li]
		}
		dphi := 0.5
		if bit {
			dphi = 0
		}
		st := sol.StateAt(dphi * sol.T0)
		for _, prefix := range []string{"m_" + l.Name + "_", "s_" + l.Name + "_"} {
			for i := 0; i < lc.Cfg.Ring.Stages; i++ {
				idx := lc.Sys.Ckt.NodeIndex(fmt.Sprintf("%s%d", prefix, i+1))
				if idx >= 0 && i < len(st) {
					x[idx] = st[i]
				}
			}
		}
	}
	return x
}

// Run integrates the lowered circuit for nPeriods clock periods from the
// given latch state (trap rule, 256 steps per reference cycle, recording
// every 4th step — the settings validated by the serial-adder cross-check).
func (lc *LogicCircuit) Run(ctx context.Context, sol *pss.Solution, state []bool, nPeriods float64) (*transient.Result, error) {
	T1 := 1 / lc.Cfg.F1
	return transient.RunCtx(ctx, lc.Sys, lc.InitialState(sol, state), 0,
		nPeriods*lc.ClockPeriod, transient.Options{
			Method: transient.Trap, Step: T1 / 256, Record: 4,
		})
}

// DecodePeriod reads every output bit during clock period k with the
// pairwise phase detectors: combinational outputs over [0.30, 0.45]·P
// (inputs and held state stable), latch outputs over [0.80, 0.95]·P (slave
// transparent and settled).
func (lc *LogicCircuit) DecodePeriod(res *transient.Result, k int) ([]bool, error) {
	ref := res.Node(lc.RefNode)
	base := float64(k) * lc.ClockPeriod
	out := make([]bool, len(lc.OutNodes))
	for i, n := range lc.OutNodes {
		lo, hi := base+0.30*lc.ClockPeriod, base+0.45*lc.ClockPeriod
		if lc.OutIsLatch[i] {
			lo, hi = base+0.80*lc.ClockPeriod, base+0.95*lc.ClockPeriod
		}
		lvl, ok, _ := DetectPhasePair(res.T, res.Node(n), ref, lc.Cfg.F1, lo, hi, 0.05*lc.Cfg.InputAmp)
		if !ok {
			return nil, fmt.Errorf("%w: output %q in period %d",
				ErrUndecodable, lc.Prog.Nets[lc.Prog.Outputs[i]], k)
		}
		out[i] = lvl
	}
	return out, nil
}
