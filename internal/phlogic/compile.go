package phlogic

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/phasemacro"
	"repro/internal/ppv"
)

// Program is a validated, compiled netlist: nets resolved to dense indices
// and the combinational ops topologically ordered, ready for repeated
// Boolean or phasor evaluation. A Program is immutable after Compile;
// concurrent evaluations each use their own Scratch.
type Program struct {
	Netlist *Netlist
	// Nets maps net index → name. Index 0 is the constant-0 net, index 1
	// the constant-1 net, then the declared inputs, then op outputs in
	// topological order (latches first, as sequential sources).
	Nets []string
	// NetIndex is the inverse of Nets.
	NetIndex map[string]int
	// Inputs / Outputs are the net indices of the declared interface.
	Inputs, Outputs []int
	// Comb is the combinational ops in dependency order.
	Comb []CompiledOp
	// Latches is the sequential state: q net and d net per IR latch.
	Latches []CompiledLatch
}

// CompiledOp is one combinational gate with resolved net indices.
type CompiledOp struct {
	Kind    OpKind
	Name    string
	Out     int
	In      []int
	Weights []float64 // always populated (ones for unweighted MAJ)
}

// CompiledLatch is one master–slave D flip-flop with resolved net indices.
type CompiledLatch struct {
	Name string
	Q, D int
}

// Compile validates the netlist and resolves it into a Program. All
// structural errors wrap ErrInvalidNetlist.
func (n *Netlist) Compile() (*Program, error) {
	if n.Name == "" {
		return nil, invalidf("netlist has no name")
	}
	p := &Program{
		Netlist:  n,
		Nets:     []string{ConstZero, ConstOne},
		NetIndex: map[string]int{ConstZero: 0, ConstOne: 1},
	}
	addNet := func(name string) int {
		if i, ok := p.NetIndex[name]; ok {
			return i
		}
		i := len(p.Nets)
		p.Nets = append(p.Nets, name)
		p.NetIndex[name] = i
		return i
	}
	for _, in := range n.Inputs {
		if in == "" {
			return nil, invalidf("empty input net name")
		}
		if in == ConstZero || in == ConstOne {
			return nil, invalidf("input %q shadows a constant net", in)
		}
		if _, dup := p.NetIndex[in]; dup {
			return nil, invalidf("duplicate input %q", in)
		}
		p.Inputs = append(p.Inputs, addNet(in))
	}
	// First pass: register every op output, checking single drivers.
	driver := map[string]int{} // net name → op index
	for i, op := range n.Ops {
		if op.Out == "" {
			return nil, invalidf("op %d (%s) has no output net", i, op.Kind)
		}
		if op.Out == ConstZero || op.Out == ConstOne {
			return nil, invalidf("op %q drives a constant net", op.name(i))
		}
		for _, in := range n.Inputs {
			if op.Out == in {
				return nil, invalidf("op %q drives input net %q", op.name(i), op.Out)
			}
		}
		if prev, dup := driver[op.Out]; dup {
			return nil, invalidf("net %q driven by both %q and %q",
				op.Out, n.Ops[prev].name(prev), op.name(i))
		}
		driver[op.Out] = i
		addNet(op.Out)
		switch op.Kind {
		case OpMaj:
			if len(op.In) == 0 {
				return nil, invalidf("maj %q has no inputs", op.name(i))
			}
			if op.Weights != nil && len(op.Weights) != len(op.In) {
				return nil, invalidf("maj %q has %d weights for %d inputs",
					op.name(i), len(op.Weights), len(op.In))
			}
			for wi, w := range op.Weights {
				if w == 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return nil, invalidf("maj %q weight %d is %v", op.name(i), wi, w)
				}
			}
		case OpNot, OpLatch:
			if len(op.In) != 1 {
				return nil, invalidf("%s %q needs exactly one input, has %d",
					op.Kind, op.name(i), len(op.In))
			}
			if op.Weights != nil {
				return nil, invalidf("%s %q carries weights", op.Kind, op.name(i))
			}
		default:
			return nil, invalidf("op %q has unknown kind %q", op.name(i), op.Kind)
		}
	}
	// Every referenced net must exist (const, input, or op-driven).
	for i, op := range n.Ops {
		for _, in := range op.In {
			if _, ok := p.NetIndex[in]; !ok {
				return nil, invalidf("op %q reads undriven net %q", op.name(i), in)
			}
		}
	}
	if len(n.Outputs) == 0 {
		return nil, invalidf("netlist declares no outputs")
	}
	seenOut := map[string]bool{}
	for _, out := range n.Outputs {
		if _, ok := p.NetIndex[out]; !ok {
			return nil, invalidf("output %q is not a driven net", out)
		}
		if seenOut[out] {
			return nil, invalidf("duplicate output %q", out)
		}
		seenOut[out] = true
		p.Outputs = append(p.Outputs, p.NetIndex[out])
	}
	// Latches are sequential sources; collect them before ordering the
	// combinational subgraph.
	for i, op := range n.Ops {
		if op.Kind == OpLatch {
			p.Latches = append(p.Latches, CompiledLatch{
				Name: op.name(i), Q: p.NetIndex[op.Out], D: p.NetIndex[op.In[0]],
			})
		}
	}
	// Topological sort of the combinational ops (Kahn, deterministic: ready
	// ops run in netlist order). Latch q nets, inputs, and consts are
	// sources; a leftover op means a combinational cycle.
	ready := func(op Op, done map[string]bool) bool {
		for _, in := range op.In {
			di, driven := driver[in]
			if driven && n.Ops[di].Kind != OpLatch && !done[in] {
				return false
			}
		}
		return true
	}
	done := map[string]bool{}
	scheduled := make([]bool, len(n.Ops))
	for {
		progress := false
		for i, op := range n.Ops {
			if scheduled[i] || op.Kind == OpLatch {
				continue
			}
			if !ready(op, done) {
				continue
			}
			w := op.Weights
			if w == nil {
				w = make([]float64, len(op.In))
				for j := range w {
					w[j] = 1
				}
			}
			ins := make([]int, len(op.In))
			for j, in := range op.In {
				ins[j] = p.NetIndex[in]
			}
			p.Comb = append(p.Comb, CompiledOp{
				Kind: op.Kind, Name: op.name(i), Out: p.NetIndex[op.Out],
				In: ins, Weights: w,
			})
			done[op.Out] = true
			scheduled[i] = true
			progress = true
		}
		if !progress {
			break
		}
	}
	for i, op := range n.Ops {
		if !scheduled[i] && op.Kind != OpLatch {
			return nil, invalidf("combinational cycle through op %q (net %q)", op.name(i), op.Out)
		}
	}
	return p, nil
}

func (op Op) name(i int) string {
	if op.Name != "" {
		return op.Name
	}
	if op.Out != "" {
		return op.Out
	}
	return fmt.Sprintf("op%d", i)
}

// NumState is the number of sequential state bits (IR latches).
func (p *Program) NumState() int { return len(p.Latches) }

// EvalBool evaluates the combinational network in the Boolean domain: given
// the input word and the current latch state, it returns the output word
// and the next latch state (what each latch would capture at the next clock
// edge). This is the golden reference the phase-domain lowerings are
// verified against. An exact weighted-sum tie in a MAJ gate decodes as
// false (the SOP synthesizer and the adder generator never produce ties).
func (p *Program) EvalBool(inputs []bool, state []bool) (outputs, next []bool, err error) {
	if len(inputs) != len(p.Inputs) {
		return nil, nil, fmt.Errorf("phlogic: %d input bits for %d inputs", len(inputs), len(p.Inputs))
	}
	if len(state) != len(p.Latches) {
		return nil, nil, fmt.Errorf("phlogic: %d state bits for %d latches", len(state), len(p.Latches))
	}
	val := make([]bool, len(p.Nets))
	val[1] = true // const 1
	for i, idx := range p.Inputs {
		val[idx] = inputs[i]
	}
	for i, l := range p.Latches {
		val[l.Q] = state[i]
	}
	sgn := func(b bool) float64 {
		if b {
			return 1
		}
		return -1
	}
	for _, op := range p.Comb {
		switch op.Kind {
		case OpMaj:
			s := 0.0
			for j, in := range op.In {
				s += op.Weights[j] * sgn(val[in])
			}
			val[op.Out] = s > 0
		case OpNot:
			val[op.Out] = !val[op.In[0]]
		}
	}
	outputs = make([]bool, len(p.Outputs))
	for i, idx := range p.Outputs {
		outputs[i] = val[idx]
	}
	next = make([]bool, len(p.Latches))
	for i, l := range p.Latches {
		next[i] = val[l.D]
	}
	return outputs, next, nil
}

// Scratch is the per-evaluation phasor workspace of a Program. Evaluations
// sharing a Scratch must not run concurrently; give each goroutine its own
// (see MacroMachine, which allocates one per run).
type Scratch struct {
	Sig []complex128 // indexed by net
}

// NewScratch allocates an evaluation workspace.
func (p *Program) NewScratch() *Scratch {
	return &Scratch{Sig: make([]complex128, len(p.Nets))}
}

// EvalPhasors runs the combinational network in the phasor domain. The
// caller must have filled s.Sig at the constant, input, and latch-q net
// indices; gate outputs are written in place. sat is the op-amp saturation
// amplitude and gain the restoring pre-gain: each MAJ computes
// sat·tanh(gain·|Σw·x|/sat) along the phase of the weighted sum, so a full
// swing survives deep gate chains (with gain 1 every tanh stage multiplies
// the amplitude by ≈0.76, which starves long carry chains).
func (p *Program) EvalPhasors(s *Scratch, sat, gain float64) {
	for _, op := range p.Comb {
		switch op.Kind {
		case OpMaj:
			var sum complex128
			for j, in := range op.In {
				sum += complex(gain*op.Weights[j], 0) * s.Sig[in]
			}
			m := cmplx.Abs(sum)
			if m == 0 {
				s.Sig[op.Out] = 0
				continue
			}
			lim := sat * math.Tanh(m/sat)
			s.Sig[op.Out] = sum * complex(lim/m, 0)
		case OpNot:
			s.Sig[op.Out] = -s.Sig[op.In[0]]
		}
	}
}

// MacroConfig tunes the macromodel lowering of a Program.
type MacroConfig struct {
	InjNode int     // latch-circuit node receiving SYNC and coupled drive (default 0)
	OutNode int     // latch-circuit node observed as the output (default 0)
	SyncAmp float64 // SYNC current amplitude per latch, A (default 100 µA)
	// InputAmp is the external drive amplitude, V (0: latch output swing).
	InputAmp float64
	// GateSat is the op-amp saturation amplitude, V (0: latch output swing).
	GateSat float64
	// GateGain is the restoring pre-gain of every MAJ gate (default 4; see
	// Program.EvalPhasors).
	GateGain float64
	// Rc is the coupling resistance of the input networks, Ω (default 10 kΩ).
	Rc float64
	// ClockCycles is the CLK period in reference cycles for sequential
	// netlists (default 100).
	ClockCycles float64
	// SettleCycles is the integration length of a combinational RunWord, in
	// reference cycles (default 60).
	SettleCycles float64
	// DtCycles is the RK4 step in reference cycles (default 0.25).
	DtCycles float64
	// InputOscillators interposes a wobblchip-style input array: each input
	// bit gets its own oscillator latch, pulled to the bit's phase through a
	// switchable coupling link, and the combinational network reads the
	// oscillators' phasors instead of ideal drive phasors.
	InputOscillators bool
}

func (c *MacroConfig) setDefaults() {
	if c.SyncAmp == 0 {
		c.SyncAmp = 100e-6
	}
	if c.GateGain == 0 {
		c.GateGain = 4
	}
	if c.Rc == 0 {
		c.Rc = 10e3
	}
	if c.ClockCycles == 0 {
		c.ClockCycles = 100
	}
	if c.SettleCycles == 0 {
		c.SettleCycles = 60
	}
}

// MacroMachine is a Program lowered onto the phase-macromodel substrate:
// one oscillator latch per sequential element plus the wobblchip-style I/O
// structure — a free-running reference latch, optionally an input
// oscillator array, and a readout latch per combinational output — with
// the combinational gates evaluated as phasor algebra inside the coupled
// system's drive network. Output bits are decoded by pairwise phase
// detection against the reference latch (iolib.go), so systematic phase
// offsets common to all latches cancel.
//
// A MacroMachine is immutable after CompileMacro and safe for concurrent
// runs: every Run* call builds its own phasemacro.System and Scratch around
// the shared read-only latch models.
type MacroMachine struct {
	Prog  *Program
	Cal   phasemacro.Calibration
	F1    float64
	Clock Clock
	Cfg   MacroConfig

	latches []*phasemacro.Latch
	// Latch-array layout (indices into latches):
	refIdx int      // the reference latch
	inIdx  []int    // per input net: its input-array latch (nil when !InputOscillators)
	msIdx  [][2]int // per Program latch: {master, slave}
	roIdx  []int    // per output: readout latch, or −1 when the output is a latch q
	roOut  []int    // indices of outputs that have readout latches

	// scratch pools *phasemacro.Scratch for RunWord/RunStreams, so repeated
	// words through one machine reuse the integrator's hot-path buffers.
	scratch sync.Pool
}

// CompileMacro lowers a netlist onto the phase-macromodel substrate. All
// latches are instances of the design whose PPV is p; f1 is the reference
// frequency the phases are measured against.
func CompileMacro(n *Netlist, p *ppv.PPV, f1 float64, cfg MacroConfig) (*MacroMachine, error) {
	prog, err := n.Compile()
	if err != nil {
		return nil, err
	}
	cfg.setDefaults()
	m := &MacroMachine{Prog: prog, F1: f1, Cfg: cfg}
	// Deterministic per-latch free-running mismatch, as between physical
	// latch instances: alternating sign plus a small index-dependent term,
	// so no two latches sit on the exact antipodal saddle together.
	newLatch := func(name string) *phasemacro.Latch {
		i := len(m.latches)
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		l := &phasemacro.Latch{
			Name: name, P: p, Node: cfg.InjNode, Out: cfg.OutNode,
			SyncAmp: cfg.SyncAmp,
			F0Shift: (sign*5e-4 + 2e-5*float64(i%7)) * p.F0,
		}
		m.latches = append(m.latches, l)
		return l
	}
	ref := newLatch("REF")
	ref.F0Shift = 0 // the reference defines the phase origin
	m.refIdx = 0
	cal, err := phasemacro.Calibrate(ref, cfg.Rc)
	if err != nil {
		return nil, err
	}
	m.Cal = cal
	swing := cmplx.Abs(cal.OutPhasor0)
	if m.Cfg.InputAmp == 0 {
		m.Cfg.InputAmp = swing
	}
	if m.Cfg.GateSat == 0 {
		m.Cfg.GateSat = swing
	}
	if cfg.InputOscillators {
		m.inIdx = make([]int, len(prog.Inputs))
		for i, net := range prog.Inputs {
			newLatch("IN:" + prog.Nets[net])
			m.inIdx[i] = len(m.latches) - 1
		}
	}
	for _, l := range prog.Latches {
		newLatch("M:" + l.Name)
		newLatch("S:" + l.Name)
		m.msIdx = append(m.msIdx, [2]int{len(m.latches) - 2, len(m.latches) - 1})
	}
	// A combinational output gets a readout latch (the physical output
	// stage); an output that is a latch q is read from the slave directly.
	qSlave := map[int]int{}
	for i, l := range prog.Latches {
		qSlave[l.Q] = m.msIdx[i][1]
	}
	m.roIdx = make([]int, len(prog.Outputs))
	for i, net := range prog.Outputs {
		if s, isQ := qSlave[net]; isQ {
			m.roIdx[i] = -s - 1 // negative encodes "read slave s directly"
			continue
		}
		newLatch("RO:" + prog.Nets[net])
		m.roIdx[i] = len(m.latches) - 1
		m.roOut = append(m.roOut, i)
	}
	m.Clock = Clock{Period: m.Cfg.ClockCycles / f1}
	return m, nil
}

// NumLatches is the total oscillator-latch count of the lowered system
// (reference + input array + 2 per flip-flop + readouts).
func (m *MacroMachine) NumLatches() int { return len(m.latches) }

// system builds a fresh coupled phase system around the shared latch
// models. input returns the Boolean level of input i at time t.
func (m *MacroMachine) system(input func(i int, t float64) bool) *phasemacro.System {
	prog, cfg := m.Prog, m.Cfg
	scratch := prog.NewScratch()
	return &phasemacro.System{
		F1:      m.F1,
		Latches: m.latches,
		Cal:     m.Cal,
		// drives arrives zeroed from the integrator; only driven latches are
		// written.
		Drive: func(t float64, outs, drives []complex128) {
			scratch.Sig[0] = m.Cal.LogicPhasor(false, cfg.InputAmp)
			scratch.Sig[1] = m.Cal.LogicPhasor(true, cfg.InputAmp)
			for i, net := range prog.Inputs {
				bitP := m.Cal.LogicPhasor(input(i, t), cfg.InputAmp)
				if cfg.InputOscillators {
					// The coupling link pulls the input oscillator toward
					// the word bit's phase; the network reads the
					// oscillator, not the link.
					drives[m.inIdx[i]] = bitP
					scratch.Sig[net] = outs[m.inIdx[i]]
				} else {
					scratch.Sig[net] = bitP
				}
			}
			for i, l := range prog.Latches {
				scratch.Sig[l.Q] = outs[m.msIdx[i][1]]
			}
			prog.EvalPhasors(scratch, cfg.GateSat, cfg.GateGain)
			enM := m.Clock.ENMaster(t)
			enS := m.Clock.ENSlave(t)
			for i, l := range prog.Latches {
				ms := m.msIdx[i]
				drives[ms[0]] = scratch.Sig[l.D] * complex(enM, 0)
				drives[ms[1]] = outs[ms[0]] * complex(enS, 0)
			}
			for _, oi := range m.roOut {
				drives[m.roIdx[oi]] = scratch.Sig[prog.Outputs[oi]]
			}
		},
	}
}

// getScratch borrows an integrator scratch sized for this machine from the
// per-machine pool (RunWord/RunStreams may run concurrently on one machine).
func (m *MacroMachine) getScratch() *phasemacro.Scratch {
	if sc, ok := m.scratch.Get().(*phasemacro.Scratch); ok {
		return sc
	}
	return phasemacro.NewScratch(len(m.latches))
}

// initialPhases starts the reference at Δφ = 0 and everything else at the
// logic-0 phase, slightly staggered so no latch sits exactly on a saddle.
func (m *MacroMachine) initialPhases() []float64 {
	d := make([]float64, len(m.latches))
	for i := range d {
		d[i] = 0.5 + 0.02*float64(i%5-2)
	}
	d[m.refIdx] = 0
	return d
}

// outputPhase reads output i's latch phase from the trajectory at time t.
func (m *MacroMachine) outputPhase(res *phasemacro.Result, i int, t float64) float64 {
	idx := m.roIdx[i]
	if idx < 0 {
		idx = -idx - 1 // slave latch
	}
	return res.PhaseAt(idx, t)
}

// decodeAt reads all output bits at time t by pairwise phase detection
// against the reference latch.
func (m *MacroMachine) decodeAt(res *phasemacro.Result, t float64) ([]bool, error) {
	ref := res.PhaseAt(m.refIdx, t)
	bits := make([]bool, len(m.Prog.Outputs))
	for i := range bits {
		b, ok := DetectPair(m.outputPhase(res, i, t), ref)
		if !ok {
			return nil, fmt.Errorf("%w: output %q at t=%g (Δφ=%.3f vs ref %.3f)",
				ErrUndecodable, m.Prog.Nets[m.Prog.Outputs[i]], t,
				m.outputPhase(res, i, t), ref)
		}
		bits[i] = b
	}
	return bits, nil
}

// RunWord drives a combinational netlist with a constant input word, lets
// the coupled system settle for Cfg.SettleCycles reference cycles, and
// returns the decoded output word. The trajectory is returned for
// inspection (latch order: reference, inputs, masters/slaves, readouts).
func (m *MacroMachine) RunWord(word []bool) ([]bool, *phasemacro.Result, error) {
	if len(word) != len(m.Prog.Inputs) {
		return nil, nil, fmt.Errorf("phlogic: %d word bits for %d inputs", len(word), len(m.Prog.Inputs))
	}
	sys := m.system(func(i int, t float64) bool { return word[i] })
	t1 := m.Cfg.SettleCycles / m.F1
	sc := m.getScratch()
	res, err := sys.RunScratch(sc, m.initialPhases(), 0, t1, m.Cfg.DtCycles)
	m.scratch.Put(sc)
	if err != nil {
		return nil, nil, err
	}
	bits, err := m.decodeAt(res, res.T[len(res.T)-1])
	if err != nil {
		return nil, res, err
	}
	return bits, res, nil
}

// RunStreams clocks a sequential netlist through nBits periods, presenting
// streams[i] on input i (LSB first, one bit per CLK period, BitStream
// timing), and decodes every output once per period: latch q outputs near
// the end of the period (after the slave has captured), combinational
// outputs in the first half (inputs and held state stable). Returned as
// out[output][period].
func (m *MacroMachine) RunStreams(streams [][]bool, nBits int) ([][]bool, *phasemacro.Result, error) {
	if len(streams) != len(m.Prog.Inputs) {
		return nil, nil, fmt.Errorf("phlogic: %d streams for %d inputs", len(streams), len(m.Prog.Inputs))
	}
	bs := make([]BitStream, len(streams))
	for i, s := range streams {
		if len(s) < nBits {
			return nil, nil, fmt.Errorf("phlogic: stream %d has %d bits, need %d", i, len(s), nBits)
		}
		bs[i] = BitStream{Bits: s, Clock: m.Clock}
	}
	sys := m.system(func(i int, t float64) bool { return bs[i].At(t) })
	t1 := float64(nBits) * m.Clock.Period
	sc := m.getScratch()
	res, err := sys.RunScratch(sc, m.initialPhases(), 0, t1, m.Cfg.DtCycles)
	m.scratch.Put(sc)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]bool, len(m.Prog.Outputs))
	for i := range out {
		out[i] = make([]bool, nBits)
	}
	ref := func(t float64) float64 { return res.PhaseAt(m.refIdx, t) }
	for k := 0; k < nBits; k++ {
		tLatch := (float64(k) + 0.98) * m.Clock.Period
		tComb := (float64(k) + 0.25) * m.Clock.Period
		for i := range out {
			t := tComb
			if m.roIdx[i] < 0 {
				t = tLatch
			}
			b, ok := DetectPair(m.outputPhase(res, i, t), ref(t))
			if !ok {
				return nil, res, fmt.Errorf("%w: output %q at period %d",
					ErrUndecodable, m.Prog.Nets[m.Prog.Outputs[i]], k)
			}
			out[i][k] = b
		}
	}
	return out, res, nil
}
