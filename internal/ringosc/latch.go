package ringosc

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
)

// LatchConfig describes the Fig. 9 D latch: the ring oscillator with a SYNC
// current source on n1 (for SHIL bit storage) and a phase-encoded D current
// source coupled through a transmission gate switched by the level-based EN
// input.
type LatchConfig struct {
	Ring Config
	// F1 is the reference frequency; SYNC runs at 2·F1.
	F1 float64
	// SyncAmp/SyncPhase (A, cycles): ISYNC = SyncAmp·cos(2π(2·F1·t + SyncPhase)).
	SyncAmp   float64
	SyncPhase float64
	// DAmp/DPhase (A, cycles): ID = DAmp·cos(2π(F1·t + DPhase)).
	DAmp   float64
	DPhase float64
	// DFlipTime > 0 flips D's phase by half a cycle at that time — the
	// bit-flip experiment of Fig. 12/17.
	DFlipTime float64
	// DImpedance is the D source's output impedance (Sec. 4.2: 10 MΩ).
	DImpedance float64
	// Transmission gate: Ron 1 kΩ, Roff 100 GΩ per Sec. 4.2.
	TGateRon, TGateRoff float64
	// EN is the level-based enable waveform (volts); nil means always on
	// (tied to Vdd).
	EN circuit.Waveform
}

// DefaultLatchConfig returns the paper's operating point: 100 µA SYNC at
// 2×9.6 kHz, D through a 1 kΩ/100 GΩ transmission gate from a 10 MΩ source.
func DefaultLatchConfig(f1 float64) LatchConfig {
	return LatchConfig{
		Ring:       DefaultConfig(),
		F1:         f1,
		SyncAmp:    100e-6,
		DAmp:       150e-6,
		DImpedance: 10e6,
		TGateRon:   1e3,
		TGateRoff:  100e9,
	}
}

// Latch is the assembled Fig. 9 circuit.
type Latch struct {
	Cfg   LatchConfig
	Ckt   *circuit.Circuit
	Sys   *circuit.System
	Ring  []circuit.NodeID // n1..nK
	DNode circuit.NodeID   // the node between D source and the gate
	EN    circuit.NodeID
}

// BuildLatch constructs and assembles the D latch circuit.
func BuildLatch(cfg LatchConfig) (*Latch, error) {
	if cfg.Ring.Stages == 0 {
		cfg.Ring = DefaultConfig()
	}
	if cfg.F1 <= 0 {
		return nil, fmt.Errorf("ringosc: latch needs a positive F1, got %g", cfg.F1)
	}
	if cfg.DImpedance == 0 {
		cfg.DImpedance = 10e6
	}
	if cfg.TGateRon == 0 {
		cfg.TGateRon = 1e3
	}
	if cfg.TGateRoff == 0 {
		cfg.TGateRoff = 100e9
	}
	r, err := Build(cfg.Ring)
	if err != nil {
		return nil, err
	}
	ckt := r.Ckt
	n1 := r.Nodes[0]

	// SYNC at 2·f1 into n1.
	ckt.Add(&device.CurrentSource{
		Name: "isync", From: circuit.Ground, To: n1,
		Wave: &circuit.Sine{Amp: cfg.SyncAmp, Freq: 2 * cfg.F1, Phase: cfg.SyncPhase},
	})

	// D input chain: source (with output impedance) → node d → tgate → n1.
	d := ckt.Node("d")
	enWave := cfg.EN
	if enWave == nil {
		enWave = circuit.DC(cfg.Ring.Vdd)
	}
	en := ckt.AddRail("en", enWave)
	dWave := &circuit.Sine{Amp: cfg.DAmp, Freq: cfg.F1, Phase: cfg.DPhase}
	if cfg.DFlipTime > 0 {
		dWave.Flips = []float64{cfg.DFlipTime}
	}
	ckt.Add(
		&device.CurrentSource{Name: "id", From: circuit.Ground, To: d, Wave: dWave},
		&device.Resistor{Name: "rd", A: d, B: circuit.Ground, R: cfg.DImpedance},
		&device.TransGate{Name: "tg", A: d, B: n1, Ctrl: en,
			Ron: cfg.TGateRon, Roff: cfg.TGateRoff,
			Von: 0.6 * cfg.Ring.Vdd, Voff: 0.4 * cfg.Ring.Vdd},
	)

	sys, err := ckt.Assemble()
	if err != nil {
		return nil, err
	}
	return &Latch{
		Cfg: cfg, Ckt: ckt, Sys: sys,
		Ring: r.Nodes, DNode: d, EN: en,
	}, nil
}

// KickStart mirrors Ring.KickStart with the extra D node at mid-rail.
func (l *Latch) KickStart() []float64 {
	x := make([]float64, l.Sys.N)
	vdd := l.Cfg.Ring.Vdd
	for i := range l.Ring {
		x[int(l.Ring[i])] = vdd/2 + 0.8*math.Sin(2*math.Pi*float64(i)/3)
	}
	x[int(l.Ring[0])] = vdd * 0.9
	x[int(l.DNode)] = vdd / 2 * 0 // the D node sits near ground through Rd
	return x
}

// OutputIndex returns n1's free-node index (the observed latch output).
func (l *Latch) OutputIndex() int { return int(l.Ring[0]) }

// EstimatedF0 estimates the free-running frequency of the latch's ring core
// (the SYNC and D sources perturb but do not set the frequency).
func (l *Latch) EstimatedF0() float64 { return estimatedF0(l.Cfg.Ring) }

// ReferenceWaveform returns the V_REF of eq. (8): a Vdd-swing cosine at F1
// with the given phase offset in cycles (Δφ_peak + Δφᵢ).
func (l *Latch) ReferenceWaveform(phase float64) func(t float64) float64 {
	vdd := l.Cfg.Ring.Vdd
	return func(t float64) float64 {
		return vdd/2 + vdd/2*math.Cos(2*math.Pi*(l.Cfg.F1*t-phase))
	}
}
