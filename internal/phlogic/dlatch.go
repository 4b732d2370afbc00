package phlogic

import (
	"math/cmplx"

	"repro/internal/phasemacro"
	"repro/internal/ppv"
)

// PhaseDLatch is the fully phase-based D latch of Fig. 13: no level-encoded
// enable anywhere — the clock itself is a phase-logic signal entering a
// three-input majority gate together with the data input and the latch's own
// output:
//
//	drive = MAJ(D, CLK, Q)
//
// The classic parametron-era argument shows why this is a D latch over one
// full clock cycle: while CLK encodes 1 the majority computes D ∨ Q, and
// while CLK encodes 0 it computes D ∧ Q, so after a high-then-low cycle
// Q = D ∧ (D ∨ Q) = D regardless of the stored bit.
type PhaseDLatch struct {
	Sys   *phasemacro.System
	Cal   phasemacro.Calibration
	Clock Clock
	D     BitStream
	sat   float64
	amp   float64
}

// PhaseDLatchConfig sizes the latch.
type PhaseDLatchConfig struct {
	SyncAmp     float64 // SYNC per latch, A (default 100 µA)
	Rc          float64 // coupling resistance, Ω (default 10 kΩ)
	ClockCycles float64 // reference cycles per CLK period (default 100)
	GateSat     float64 // majority saturation, V (0: latch swing)
}

// NewPhaseDLatch builds the latch driven by the LSB-first data bits (one
// bit per clock period).
func NewPhaseDLatch(p *ppv.PPV, injNode, outNode int, f1 float64, bits []bool, cfg PhaseDLatchConfig) (*PhaseDLatch, error) {
	if cfg.SyncAmp == 0 {
		cfg.SyncAmp = 100e-6
	}
	if cfg.Rc == 0 {
		cfg.Rc = 10e3
	}
	if cfg.ClockCycles == 0 {
		cfg.ClockCycles = 100
	}
	l := &phasemacro.Latch{Name: "Q", P: p, Node: injNode, Out: outNode,
		SyncAmp: cfg.SyncAmp, F0Shift: 5e-4 * p.F0}
	cal, err := phasemacro.Calibrate(l, cfg.Rc)
	if err != nil {
		return nil, err
	}
	swing := cmplx.Abs(cal.OutPhasor0)
	if cfg.GateSat == 0 {
		cfg.GateSat = swing
	}
	clk := Clock{Period: cfg.ClockCycles / f1}
	// The majority-clocked latch computes D∨Q then D∧Q across one full
	// cycle, so D must be stable over the whole period: delay the stream's
	// reference clock by P/4 so bit k is presented exactly on [kP, (k+1)P).
	streamClk := clk
	streamClk.Delay = clk.Period / 4
	dl := &PhaseDLatch{
		Cal:   cal,
		Clock: clk,
		D:     BitStream{Bits: bits, Clock: streamClk},
		sat:   cfg.GateSat,
		amp:   swing,
	}
	dl.Sys = &phasemacro.System{
		F1:      f1,
		Latches: []*phasemacro.Latch{l},
		Cal:     cal,
		Drive: func(t float64, outs, drives []complex128) {
			dP := cal.LogicPhasor(dl.D.At(t), dl.amp)
			// CLK as a phase-logic signal: logic 1 during the high half,
			// logic 0 during the low half (smooth amplitude through the
			// edge, phase flipping at the crossing).
			lvl := 2*clk.ENMaster(t) - 1 // +1 … −1
			cP := cal.LogicPhasor(true, dl.amp) * complex(lvl, 0)
			drives[0] = Maj3(dl.sat, dP, cP, outs[0])
		},
	}
	return dl, nil
}

// Run simulates nPeriods clock periods from an initial stored bit.
func (dl *PhaseDLatch) Run(initial bool, nPeriods float64, dtCycles float64) (*phasemacro.Result, error) {
	x0 := 0.5
	if initial {
		x0 = 0.0
	}
	return dl.Sys.Run([]float64{x0}, 0, nPeriods*dl.Clock.Period, dtCycles)
}

// ReadBits decodes the stored bit at the end of each full clock period
// (after the AND phase), for nBits periods.
func (dl *PhaseDLatch) ReadBits(res *phasemacro.Result, nBits int) []bool {
	out := make([]bool, nBits)
	for k := 0; k < nBits; k++ {
		t := (float64(k) + 0.98) * dl.Clock.Period
		idx := 0
		for idx < len(res.T)-1 && res.T[idx+1] <= t {
			idx++
		}
		out[k] = res.Bit(0, idx)
	}
	return out
}
