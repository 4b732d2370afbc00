package phlogic

import (
	"fmt"
	"math/cmplx"

	"repro/internal/phasemacro"
	"repro/internal/ppv"
)

// SerialAdderConfig sizes the Fig. 15 serial adder.
type SerialAdderConfig struct {
	InjNode     int     // latch node receiving SYNC and coupled inputs (default 0, the latch output node of the paper's vehicle)
	OutNode     int     // latch node whose waveform encodes the stored bit (default 0)
	SyncAmp     float64 // SYNC current amplitude per latch, A (e.g. 100 µA)
	InputAmp    float64 // external input phasor amplitude, V (0: match latch swing)
	GateSat     float64 // op-amp saturation amplitude, V (0: match latch swing)
	Rc          float64 // input-network coupling resistance, Ω (default 10 kΩ)
	ClockCycles float64 // reference cycles per CLK period (default 100)
}

// SerialAdder is the Fig. 15 FSM realized on phase macromodels: a full-adder
// combinational block (majority/NOT gates) plus a master–slave flip-flop
// (two level-enabled D latches, Fig. 9) holding the carry.
type SerialAdder struct {
	Sys   *phasemacro.System
	Cal   phasemacro.Calibration
	Clock Clock
	A, B  BitStream
	sat   float64
	inAmp float64
}

// NewSerialAdder assembles the adder around the latch PPV p (both latches
// are instances of the same design, as on the breadboard). The injection and
// readout nodes come from cfg (InjNode/OutNode), so every knob of the adder
// is named at the call site.
func NewSerialAdder(p *ppv.PPV, f1 float64, aBits, bBits []bool, cfg SerialAdderConfig) (*SerialAdder, error) {
	if len(aBits) != len(bBits) {
		return nil, fmt.Errorf("phlogic: input streams differ in length (%d vs %d)", len(aBits), len(bBits))
	}
	if cfg.SyncAmp == 0 {
		cfg.SyncAmp = 100e-6
	}
	if cfg.Rc == 0 {
		cfg.Rc = 10e3
	}
	if cfg.ClockCycles == 0 {
		cfg.ClockCycles = 100
	}
	// Distinct F0 shifts model breadboard device mismatch between the two
	// physical latch instances (±0.05% here) — and keep noise-free
	// antipodal bit flips from stalling on the exact saddle.
	master := &phasemacro.Latch{Name: "Q1", P: p, Node: cfg.InjNode, Out: cfg.OutNode,
		SyncAmp: cfg.SyncAmp, F0Shift: +5e-4 * p.F0}
	slave := &phasemacro.Latch{Name: "Q2", P: p, Node: cfg.InjNode, Out: cfg.OutNode,
		SyncAmp: cfg.SyncAmp, F0Shift: -5e-4 * p.F0}
	cal, err := phasemacro.Calibrate(master, cfg.Rc)
	if err != nil {
		return nil, err
	}
	swing := cmplx.Abs(cal.OutPhasor0)
	if cfg.InputAmp == 0 {
		cfg.InputAmp = swing
	}
	if cfg.GateSat == 0 {
		cfg.GateSat = swing
	}
	clk := Clock{Period: cfg.ClockCycles / f1}
	sa := &SerialAdder{
		Cal:   cal,
		Clock: clk,
		A:     BitStream{Bits: aBits, Clock: clk},
		B:     BitStream{Bits: bBits, Clock: clk},
		sat:   cfg.GateSat,
		inAmp: cfg.InputAmp,
	}
	sa.Sys = &phasemacro.System{
		F1:      f1,
		Latches: []*phasemacro.Latch{master, slave},
		Cal:     cal,
		Drive: func(t float64, outs, drives []complex128) {
			aP := cal.LogicPhasor(sa.A.At(t), cfg.InputAmp)
			bP := cal.LogicPhasor(sa.B.At(t), cfg.InputAmp)
			_, cout := FullAdder(cfg.GateSat, aP, bP, outs[1])
			drives[0] = cout * complex(clk.ENMaster(t), 0)   // master follows new carry
			drives[1] = outs[0] * complex(clk.ENSlave(t), 0) // slave follows master
		},
	}
	return sa, nil
}

// Run simulates nPeriods clock periods (enough to shift all bits through)
// starting from carry = 0 in both latches.
func (sa *SerialAdder) Run(nPeriods float64, dtCycles float64) (*phasemacro.Result, error) {
	t1 := nPeriods * sa.Clock.Period
	// Carry starts at logic 0 ↔ Δφ = ½.
	return sa.Sys.Run([]float64{0.5, 0.5}, 0, t1, dtCycles)
}

// SumAt decodes the combinational sum output at time t from the simulated
// phases (the sum node is combinational; it is valid while inputs and the
// carry are stable, i.e. away from clock edges).
func (sa *SerialAdder) SumAt(res *phasemacro.Result, t float64) (bool, bool) {
	// Locate the step at or before t.
	idx := 0
	for idx < len(res.T)-1 && res.T[idx+1] <= t {
		idx++
	}
	outs := sa.Sys.OutPhasors([]float64{res.Dphi[0][idx], res.Dphi[1][idx]})
	aP := sa.Cal.LogicPhasor(sa.A.At(t), sa.inAmp)
	bP := sa.Cal.LogicPhasor(sa.B.At(t), sa.inAmp)
	sum, _ := FullAdder(sa.sat, aP, bP, outs[1])
	return DecodeLevel(sum, sa.Cal.OutPhasor0)
}

// CoutAt decodes the combinational carry-out at time t.
func (sa *SerialAdder) CoutAt(res *phasemacro.Result, t float64) (bool, bool) {
	idx := 0
	for idx < len(res.T)-1 && res.T[idx+1] <= t {
		idx++
	}
	outs := sa.Sys.OutPhasors([]float64{res.Dphi[0][idx], res.Dphi[1][idx]})
	aP := sa.Cal.LogicPhasor(sa.A.At(t), sa.inAmp)
	bP := sa.Cal.LogicPhasor(sa.B.At(t), sa.inAmp)
	_, cout := FullAdder(sa.sat, aP, bP, outs[1])
	return DecodeLevel(cout, sa.Cal.OutPhasor0)
}

// ReadSums samples the decoded sum in the middle of each clock period's
// high phase (inputs stable, previous carry held in Q2) for nBits periods.
func (sa *SerialAdder) ReadSums(res *phasemacro.Result, nBits int) ([]bool, error) {
	out := make([]bool, nBits)
	for k := 0; k < nBits; k++ {
		t := sa.Clock.Delay + (float64(k)+0.25)*sa.Clock.Period
		b, ok := sa.SumAt(res, t)
		if !ok {
			return nil, fmt.Errorf("phlogic: sum undecodable at bit %d (t=%g)", k, t)
		}
		out[k] = b
	}
	return out, nil
}

// ReadCarries samples the decoded carry-out similarly.
func (sa *SerialAdder) ReadCarries(res *phasemacro.Result, nBits int) ([]bool, error) {
	out := make([]bool, nBits)
	for k := 0; k < nBits; k++ {
		t := sa.Clock.Delay + (float64(k)+0.25)*sa.Clock.Period
		b, ok := sa.CoutAt(res, t)
		if !ok {
			return nil, fmt.Errorf("phlogic: cout undecodable at bit %d (t=%g)", k, t)
		}
		out[k] = b
	}
	return out, nil
}
