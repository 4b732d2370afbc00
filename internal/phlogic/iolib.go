package phlogic

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// This file is the wobblchip-style I/O library of the phase-logic compiler:
// how N-bit words get into and out of an oscillator array.
//
//   - Input: an array of oscillators, each pulled to the phase of its word
//     bit through a switchable coupling link (a transmission-gate pair that
//     routes either the in-phase or the anti-phase reference buffer into
//     the oscillator's series-RC injection network). Flipping the switches
//     re-encodes the word; the oscillators re-lock within a few cycles.
//   - Output: pairwise phase detectors. A bit is read as the relative phase
//     of two oscillators — an output latch against the free-running
//     reference latch — so any systematic phase offset common to the array
//     (frequency detuning, injection path delay) cancels in the pair.

// DetectPair is the macromodel-level pairwise phase detector: it decodes
// the phase difference of two latches (in cycles, any branch) as a logic
// level — true when they are in phase, false in anti-phase — and reports
// ok=false when the difference is too close to quadrature to decide (more
// than 0.15 cycles from both canonical phases).
func DetectPair(phi, phiRef float64) (level, ok bool) {
	d := math.Mod(phi-phiRef, 1)
	if d < 0 {
		d += 1
	}
	if d > 0.5 {
		d = 1 - d // distance in [0, 0.5]
	}
	if d < 0.15 {
		return true, true
	}
	if d > 0.35 {
		return false, true
	}
	return false, false
}

// DetectPhasePair is the circuit-level pairwise phase detector: it measures
// the fundamental phasors of two recorded node waveforms over [t0, t1] by
// Fourier integral at f1 and decodes their relative phase as a logic level.
// minAmp rejects signals whose fundamental amplitude is below the
// detection floor; the quadrature guard matches DetectPair (±0.15 cycles).
func DetectPhasePair(ts, va, vb []float64, f1, t0, t1, minAmp float64) (level, ok bool, phErr float64) {
	phasor := func(vs []float64) (re, im, n float64) {
		for i := range ts {
			if ts[i] < t0 || ts[i] > t1 {
				continue
			}
			ang := 2 * math.Pi * f1 * ts[i]
			re += vs[i] * math.Cos(ang)
			im += vs[i] * math.Sin(ang)
			n++
		}
		return re, im, n
	}
	ra, ia, na := phasor(va)
	rb, ib, nb := phasor(vb)
	if na == 0 || nb == 0 {
		return false, false, 0
	}
	if math.Hypot(ra, ia)/na < minAmp/2 || math.Hypot(rb, ib)/nb < minAmp/2 {
		return false, false, 0
	}
	// V = A·cos(2πf1·t + φ) ⇒ ∫V·cos ∝ cos φ, ∫V·sin ∝ −sin φ.
	d := (math.Atan2(-ia, ra) - math.Atan2(-ib, rb)) / (2 * math.Pi)
	d = math.Mod(d, 1)
	if d < 0 {
		d += 1
	}
	if d > 0.5 {
		d = 1 - d
	}
	if d < 0.15 {
		return true, true, d
	}
	if d > 0.35 {
		return false, true, 0.5 - d
	}
	return false, false, d
}

// InputArrayConfig sizes a transistor-level input oscillator array.
type InputArrayConfig struct {
	Ring      ringosc.Config
	F1        float64
	SyncAmp   float64 // SYNC current per oscillator, A
	SyncPhase float64 // cycles (from phasemacro.Calibrate)

	// Reference drive: amplitude and logic-1 angle of the phase reference
	// the links distribute (InputAmp / ∠OutPhasor0 of the calibration).
	InputAmp float64
	OutAngle float64

	// Link injection network (buffer → tgate → R → C → oscillator node),
	// from ringosc.CouplingFromCalibration.
	CouplingR, CouplingC float64
	Invert               bool

	GateSwing, GateRout float64 // reference buffer op-amps
	TGateRon, TGateRoff float64
}

// InputArray is an assembled wobblchip-style input stage: one oscillator
// per word bit plus an always-1 reference oscillator, each injection-locked
// through its coupling link. Bit k's oscillator locks in phase with the
// reference when Word[k] is true and in anti-phase otherwise, so
// DetectPhasePair(bit node, ref node) recovers the word.
type InputArray struct {
	Cfg  InputArrayConfig
	Word []bool
	Ckt  *circuit.Circuit
	Sys  *circuit.System
	// BitNodes[k] is the free-node index of oscillator k's observed node;
	// RefNode is the reference oscillator's.
	BitNodes []int
	RefNode  int
}

// BuildInputArray assembles the input stage encoding the given word.
func BuildInputArray(word []bool, cfg InputArrayConfig) (*InputArray, error) {
	if len(word) == 0 {
		return nil, errors.New("phlogic: empty input word")
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
	vddV := cfg.Ring.Vdd
	mid := vddV / 2

	ckt := circuit.New()
	vdd := ckt.AddDCRail("vdd", vddV)

	// The phase reference rail and its in-phase / anti-phase buffers. The
	// Invert branch of the coupling realization folds into the buffer signs,
	// exactly as in the serial-adder circuit.
	refRail := ckt.AddRail("ref", &circuit.Sine{Amp: cfg.InputAmp, Freq: cfg.F1,
		Phase: cfg.OutAngle / (2 * math.Pi), Offset: mid})
	sign := 1.0
	if cfg.Invert {
		sign = -1
	}
	refp := ckt.Node("refp")
	refn := ckt.Node("refn")
	ckt.Add(
		&device.Summer{Name: "gbufp", Inputs: []circuit.NodeID{refRail}, Weights: []float64{sign},
			Out: refp, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout},
		&device.Summer{Name: "gbufn", Inputs: []circuit.NodeID{refRail}, Weights: []float64{-sign},
			Out: refn, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout},
	)

	buildOsc := func(prefix string, link func(into circuit.NodeID)) []circuit.NodeID {
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
		link(nodes[0])
		return nodes
	}
	// The switchable link: two transmission gates route refp or refn into
	// the series-RC injection network; the gate controls are tied to the
	// rails (vdd = closed, ground = open), which is the "switch position"
	// encoding the word bit.
	link := func(prefix string, bit bool) func(circuit.NodeID) {
		return func(into circuit.NodeID) {
			x1 := ckt.Node(prefix + "_x1")
			x2 := ckt.Node(prefix + "_x2")
			onP, onN := circuit.NodeID(vdd), circuit.Ground
			if !bit {
				onP, onN = circuit.Ground, circuit.NodeID(vdd)
			}
			ckt.Add(
				&device.TransGate{Name: prefix + "_tgp", A: refp, B: x1, Ctrl: onP,
					Ron: cfg.TGateRon, Roff: cfg.TGateRoff, Von: 0.6 * vddV, Voff: 0.4 * vddV},
				&device.TransGate{Name: prefix + "_tgn", A: refn, B: x1, Ctrl: onN,
					Ron: cfg.TGateRon, Roff: cfg.TGateRoff, Von: 0.6 * vddV, Voff: 0.4 * vddV},
				&device.Resistor{Name: prefix + "_r", A: x1, B: x2, R: cfg.CouplingR},
				&device.Capacitor{Name: prefix + "_c", A: x2, B: into, C: cfg.CouplingC},
			)
		}
	}

	ia := &InputArray{Cfg: cfg, Word: append([]bool(nil), word...), Ckt: ckt}
	refNodes := buildOsc("ref_", link("ref_lnk", true))
	ia.RefNode = int(refNodes[0])
	for k, bit := range word {
		prefix := fmt.Sprintf("in%d_", k)
		nodes := buildOsc(prefix, link(prefix+"lnk", bit))
		ia.BitNodes = append(ia.BitNodes, int(nodes[0]))
	}
	sys, err := ckt.Assemble()
	if err != nil {
		return nil, err
	}
	ia.Sys = sys
	return ia, nil
}

// InitialState places every oscillator on the PSS orbit at quadrature
// (Δφ = ¼), where the link torque toward either canonical phase is near
// maximal, and all non-ring nodes at the common-mode level.
func (ia *InputArray) InitialState(sol *pss.Solution) []float64 {
	x := make([]float64, ia.Sys.N)
	for i := range x {
		x[i] = ia.Cfg.Ring.Vdd / 2
	}
	st := sol.StateAt(0.25 * sol.T0)
	place := func(prefix string) {
		for i := 0; i < ia.Cfg.Ring.Stages; i++ {
			idx := ia.Sys.Ckt.NodeIndex(fmt.Sprintf("%s%d", prefix, i+1))
			if idx >= 0 && i < len(st) {
				x[idx] = st[i]
			}
		}
	}
	place("ref_")
	for k := range ia.Word {
		place(fmt.Sprintf("in%d_", k))
	}
	return x
}

// DecodeWord reads the word back out of a recorded trajectory with the
// pairwise detectors, one oscillator pair per bit, over [t0, t1].
func (ia *InputArray) DecodeWord(ts []float64, node func(int) []float64, t0, t1 float64) ([]bool, error) {
	ref := node(ia.RefNode)
	out := make([]bool, len(ia.BitNodes))
	for k, n := range ia.BitNodes {
		lvl, ok, _ := DetectPhasePair(ts, node(n), ref, ia.Cfg.F1, t0, t1, 0.05*ia.Cfg.InputAmp)
		if !ok {
			return nil, fmt.Errorf("%w: input-array bit %d in [%g, %g]", ErrUndecodable, k, t0, t1)
		}
		out[k] = lvl
	}
	return out, nil
}
