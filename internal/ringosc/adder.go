package ringosc

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/pss"
)

// AdderCircuitConfig sizes the SPICE-level serial adder (the breadboard of
// the paper's Fig. 18, built here as a full transistor/op-amp circuit): two
// ring-oscillator D latches in a master–slave arrangement, a majority-gate
// full adder from op-amp summers, transmission-gate clock gating, and
// series-RC coupling networks that realize the phase rotation the
// calibration demands (see CouplingFromCalibration).
type AdderCircuitConfig struct {
	Ring      Config
	F1        float64
	SyncAmp   float64
	SyncPhase float64 // cycles (from phasemacro.Calibrate)

	// Input phase encoding: a latch at phase Δφ outputs a fundamental of
	// amplitude InputAmp and angle OutAngle + 2πΔφ; external a/b rails must
	// match that convention.
	InputAmp float64 // V
	OutAngle float64 // radians (∠2X1 from the PSS)

	// Coupling network (summer output → tgate → R → C → latch node).
	CouplingR float64
	CouplingC float64
	Invert    bool // realize a ρ−π rotation by negating the gate weights

	GateSwing float64 // summer saturation half-swing, V
	GateRout  float64 // summer output resistance, Ω

	ClockCycles float64 // reference cycles per clock period
	ABits       []bool
	BBits       []bool

	TGateRon, TGateRoff float64
}

// CouplingFromCalibration solves for the series R and C of the coupling
// network so that the current injected into the latch node has magnitude
// |k|·V and leads the gate voltage by ρ = ∠k, where k is the complex
// coupling the phase-macromodel calibration computed. A series RC gives
// phases in (0°, 90°); rotations in (90°, 180°) ⊕ π are realized by
// inverting the summer weights. The latch node is treated as an AC ground
// (its impedance, ~1/(ωC_load), is folded into an effective ρ tolerance —
// SHIL re-centres residual phase errors every hold phase).
func CouplingFromCalibration(k complex128, f1 float64) (r, c float64, invert bool, err error) {
	rho := cmplx.Phase(k)
	mag := cmplx.Abs(k)
	if mag == 0 {
		return 0, 0, false, errors.New("ringosc: zero coupling")
	}
	if rho < 0 {
		rho += 2 * math.Pi
	}
	if rho > math.Pi/2 {
		// Try the inverted branch: ρ' = ρ − π must land in (0, π/2).
		rho -= math.Pi
		invert = true
		if rho < 0 {
			rho += 2 * math.Pi
		}
	}
	if rho <= 1e-3 || rho >= math.Pi/2-1e-3 {
		return 0, 0, false, fmt.Errorf("ringosc: rotation %.3g rad not realizable with a series RC", rho)
	}
	w := 2 * math.Pi * f1
	wrc := math.Tan(math.Pi/2 - rho)
	c = mag * math.Sqrt(1+wrc*wrc) / w
	r = wrc / (w * c)
	return r, c, invert, nil
}

// AdderCircuit is the assembled SPICE-level serial adder.
type AdderCircuit struct {
	Cfg AdderCircuitConfig
	Ckt *circuit.Circuit
	Sys *circuit.System
	// Free-node indices of the observable outputs.
	MasterOut, SlaveOut, CoutNode, SumNode int
	// Clock timing (period in seconds).
	ClockPeriod float64
}

// BuildSerialAdderCircuit assembles the full transistor-level FSM.
func BuildSerialAdderCircuit(cfg AdderCircuitConfig) (*AdderCircuit, error) {
	if len(cfg.ABits) == 0 || len(cfg.ABits) != len(cfg.BBits) {
		return nil, errors.New("ringosc: need equal, nonempty bit streams")
	}
	if cfg.Ring.Stages == 0 {
		cfg.Ring = DefaultConfig()
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
	if cfg.ClockCycles == 0 {
		cfg.ClockCycles = 150
	}
	vddV := cfg.Ring.Vdd
	mid := vddV / 2
	if cfg.GateSwing == 0 {
		cfg.GateSwing = cfg.InputAmp
	}
	period := cfg.ClockCycles / cfg.F1

	ckt := circuit.New()
	vdd := ckt.AddDCRail("vdd", vddV)

	// --- the two latch rings (master m*, slave s*) ---
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
		return nodes
	}
	mNodes := buildRing("m")
	sNodes := buildRing("s")
	for i, nodes := range [][]circuit.NodeID{mNodes, sNodes} {
		ckt.Add(&device.CurrentSource{
			Name: fmt.Sprintf("isync%d", i), From: circuit.Ground, To: nodes[0],
			Wave: &circuit.Sine{Amp: cfg.SyncAmp, Freq: 2 * cfg.F1, Phase: cfg.SyncPhase},
		})
	}

	// --- phase-encoded input rails a, b ---
	aRail := ckt.AddRail("a", PhaseEncoded(cfg.ABits, mid, cfg.InputAmp, cfg.F1, cfg.OutAngle, period))
	bRail := ckt.AddRail("b", PhaseEncoded(cfg.BBits, mid, cfg.InputAmp, cfg.F1, cfg.OutAngle, period))

	// --- clock rails (smooth transmission-gate drive) ---
	clk := ckt.AddRail("clk", &circuit.Clock{Period: period, High: vddV})
	clkb := ckt.AddRail("clkb", &circuit.Clock{Period: period, High: vddV, Inverted: true})

	// --- combinational full adder from op-amp summers ---
	sign := 1.0
	if cfg.Invert {
		sign = -1
	}
	cout := ckt.Node("cout")
	sum := ckt.Node("sum")
	ckt.Add(
		// cout = MAJ(a, b, carry) where carry is the slave latch output.
		&device.Summer{Name: "gcout", Inputs: []circuit.NodeID{aRail, bRail, sNodes[0]},
			Weights: []float64{1, 1, 1}, Out: cout, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout},
		// sum = MAJ(a, b, carry, −2·cout) — the weighted parity identity.
		&device.Summer{Name: "gsum", Inputs: []circuit.NodeID{aRail, bRail, sNodes[0], cout},
			Weights: []float64{1, 1, 1, -2}, Out: sum, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout},
	)

	// --- coupling chains: cout → (tgate, R, C) → master; master → slave ---
	coupling := func(prefix string, from, to, gate circuit.NodeID, w float64) {
		n1 := ckt.Node(prefix + "_x1")
		n2 := ckt.Node(prefix + "_x2")
		ckt.Add(
			&device.TransGate{Name: prefix + "_tg", A: from, B: n1, Ctrl: gate,
				Ron: cfg.TGateRon, Roff: cfg.TGateRoff,
				Von: 0.6 * vddV, Voff: 0.4 * vddV},
			&device.Resistor{Name: prefix + "_r", A: n1, B: n2, R: cfg.CouplingR * w},
			&device.Capacitor{Name: prefix + "_c", A: n2, B: to, C: cfg.CouplingC / w},
		)
	}
	// Buffer stages isolate each coupling chain (on the breadboard, the
	// op-amp gate outputs do this): the drive is unidirectional, so the
	// receiving latch cannot back-couple into the sender. With Invert they
	// carry the extra π rotation (sign = −1).
	coutBuf := ckt.Node("cout_buf")
	mBuf := ckt.Node("m_buf")
	ckt.Add(
		&device.Summer{Name: "gbuf1", Inputs: []circuit.NodeID{cout}, Weights: []float64{sign},
			Out: coutBuf, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout},
		&device.Summer{Name: "gbuf2", Inputs: []circuit.NodeID{mNodes[0]}, Weights: []float64{sign},
			Out: mBuf, Mid: mid, Swing: cfg.GateSwing, Rout: cfg.GateRout},
	)
	coupling("km", coutBuf, mNodes[0], clk, 1)
	coupling("ks", mBuf, sNodes[0], clkb, 1)

	sys, err := ckt.Assemble()
	if err != nil {
		return nil, err
	}
	return &AdderCircuit{
		Cfg: cfg, Ckt: ckt, Sys: sys,
		MasterOut:   int(mNodes[0]),
		SlaveOut:    int(sNodes[0]),
		CoutNode:    int(cout),
		SumNode:     int(sum),
		ClockPeriod: period,
	}, nil
}

// PhaseEncoded is the rail that presents bits, one per clock period, in
// phase encoding: mid + amp·cos(2π·f1·t + angle) for logic 1 and half a
// cycle later for logic 0, bit k on [(k−¼)P, (k+¾)P) as in
// phlogic.BitStream (the first and last bits hold outside the stream).
func PhaseEncoded(bits []bool, mid, amp, f1, angle, period float64) *circuit.Sine {
	s := &circuit.Sine{Amp: amp, Freq: f1, Phase: angle / (2 * math.Pi), Offset: mid}
	if !bits[0] {
		s.Phase += 0.5
	}
	for k := 1; k < len(bits); k++ {
		if bits[k] != bits[k-1] {
			s.Flips = append(s.Flips, (float64(k)-0.25)*period)
		}
	}
	return s
}

// KickStart staggers both rings off their unstable equilibria.
func (a *AdderCircuit) KickStart() []float64 {
	x := make([]float64, a.Sys.N)
	vdd := a.Cfg.Ring.Vdd
	for i := range x {
		x[i] = vdd / 2
	}
	for i := 0; i < 3; i++ {
		x[a.Sys.Ckt.NodeIndex(fmt.Sprintf("m%d", i+1))] = vdd/2 + 0.8*math.Sin(2*math.Pi*float64(i)/3)
		x[a.Sys.Ckt.NodeIndex(fmt.Sprintf("s%d", i+1))] = vdd/2 + 0.8*math.Sin(2*math.Pi*float64(i+1)/3)
	}
	x[a.MasterOut] = vdd * 0.9
	return x
}

// InitialState places both latch rings on the PSS orbit at the phases that
// encode the given logic levels (logic 1 ↔ Δφ = 0, logic 0 ↔ Δφ = ½), so
// the FSM starts from a defined carry state. Non-ring nodes start at the
// gate common-mode level.
func (a *AdderCircuit) InitialState(sol *pss.Solution, masterBit, slaveBit bool) []float64 {
	x := make([]float64, a.Sys.N)
	for i := range x {
		x[i] = a.Cfg.Ring.Vdd / 2
	}
	place := func(prefix string, level bool) {
		dphi := 0.0
		if !level {
			dphi = 0.5
		}
		st := sol.StateAt(dphi * sol.T0)
		for i := 0; i < a.Cfg.Ring.Stages; i++ {
			idx := a.Sys.Ckt.NodeIndex(fmt.Sprintf("%s%d", prefix, i+1))
			if idx >= 0 && i < len(st) {
				x[idx] = st[i]
			}
		}
	}
	place("m", masterBit)
	place("s", slaveBit)
	return x
}

// DecodePhase measures the fundamental phasor of a node's waveform over the
// window [t0, t1] by Fourier integral against the reference e^{j(2πf1·t +
// OutAngle)} and decodes it as a logic level (true ↔ in phase ↔ logic 1).
// ok is false when the signal is too small or too close to quadrature.
func (a *AdderCircuit) DecodePhase(ts []float64, vs []float64, t0, t1 float64) (level, ok bool, phErr float64) {
	var re, im, n float64
	for i := range ts {
		if ts[i] < t0 || ts[i] > t1 {
			continue
		}
		ang := 2*math.Pi*a.Cfg.F1*ts[i] + a.Cfg.OutAngle
		re += vs[i] * math.Cos(ang)
		im += vs[i] * math.Sin(ang)
		n++
	}
	if n == 0 {
		return false, false, 0
	}
	// Phasor of V against the logic-1 reference: in-phase → positive re.
	mag := math.Hypot(re, im) / n
	if mag < 0.05*a.Cfg.InputAmp/2 {
		return false, false, 0
	}
	ph := math.Atan2(-im, re) // cos convention: V = A·cos(ang+φ) ⇒ ∫V·cos = A/2·cosφ, ∫V·sin = −A/2·sinφ
	phErr = math.Abs(ph) / (2 * math.Pi)
	if phErr > 0.5 {
		phErr = 1 - phErr
	}
	if phErr < 0.25 {
		return true, true, phErr
	}
	return false, true, 0.5 - phErr
}
