package phlogic

import (
	"context"
	"math/cmplx"

	"repro/internal/gae"
	"repro/internal/parallel"
	"repro/internal/phasemacro"
	"repro/internal/ppv"
)

// SRLatch models the fully phase-based SR latch of Fig. 13: the oscillator
// latch's inputs pass through a weighted majority (op-amp summer) gate with
// weights w1 on S, w2 on R and w3 on the SYNC path. When S and R carry
// opposite phases they cancel in the summer and the SHIL-stabilized bit
// holds; when they carry the same phase their combined fundamental drive
// flips the latch. Fig. 14's design study: with equal weights, full-swing
// S/R leak so much residue under mismatch that the bit is overwritten; with
// w1 = w2 = 0.01, w3 = 1, a 1.5 V (= Vdd/2) common input still flips the
// latch while realistic S/R mismatch leaves the stored bit intact.
type SRLatch struct {
	P       *ppv.PPV
	Node    int // injection node
	Out     int // output node
	F1      float64
	SyncAmp float64 // SYNC current amplitude before the w3 weight, A
	Cal     phasemacro.Calibration
	Sat     float64    // summer saturation amplitude, V
	Weights [3]float64 // (w1, w2, w3) for (S, R, SYNC)
}

// NewSRLatch assembles the latch with the calibrated conventions; rc is the
// input-network coupling resistance (V→A conversion of the summer output).
func NewSRLatch(p *ppv.PPV, injNode, outNode int, f1, syncAmp, rc float64, weights [3]float64) (*SRLatch, error) {
	l := &phasemacro.Latch{P: p, Node: injNode, Out: outNode, SyncAmp: syncAmp}
	cal, err := phasemacro.Calibrate(l, rc)
	if err != nil {
		return nil, err
	}
	return &SRLatch{
		P: p, Node: injNode, Out: outNode,
		F1: f1, SyncAmp: syncAmp,
		Cal: cal, Sat: cmplx.Abs(cal.OutPhasor0),
		Weights: weights,
	}, nil
}

// Model builds the GAE of the latch under fixed S and R phasors. The
// summer's fundamental-frequency output w1·S + w2·R (soft-limited) injects
// at m = 1; the SYNC path injects at m = 2 with weight w3.
func (s *SRLatch) Model(sPhasor, rPhasor complex128) *gae.Model {
	drive := Maj(s.Sat, s.Weights[:2], []complex128{sPhasor, rPhasor})
	inj := s.Cal.Coupling * drive
	m := gae.NewModel(s.P, s.F1,
		gae.Injection{
			Name: "SYNC", Node: s.Node, Amp: s.Weights[2] * s.SyncAmp,
			Harmonic: 2, Phase: s.Cal.SyncPhase,
		},
	)
	if amp := cmplx.Abs(inj); amp > 0 {
		// Injection phase convention: I = A·cos(2π(f1·t + ψ)) has phasor
		// A·e^{j2πψ}, so ψ = ∠inj / 2π.
		m.Injections = append(m.Injections, gae.Injection{
			Name: "SR", Node: s.Node, Amp: amp, Harmonic: 1,
			Phase: cmplx.Phase(inj) / (2 * 3.141592653589793),
		})
	}
	return m
}

// StablePhases returns the stable GAE equilibria for S and R of the given
// magnitudes (volts). opposite selects S = logic 1, R = logic 0 (the hold /
// cancellation case); otherwise both encode logic 1 (the set case).
func (s *SRLatch) StablePhases(sMag, rMag float64, opposite bool) []float64 {
	sp := s.Cal.LogicPhasor(true, sMag)
	rp := s.Cal.LogicPhasor(!opposite, rMag)
	m := s.Model(sp, rp)
	var out []float64
	for _, e := range m.StableEquilibria() {
		out = append(out, e.Dphi)
	}
	return out
}

// SweepMagnitudeCtx reproduces the Fig. 14 study: sweep |S| = |R| = mag
// and record the stable phases, for the same-phase (flip) and
// opposite-phase (hold) input cases. Each magnitude is an independent
// equilibrium solve on a read-only latch, run on a worker pool under ctx's
// cancellation.
func (s *SRLatch) SweepMagnitudeCtx(ctx context.Context, mags []float64, opposite bool, workers int) ([]gae.EquilibriumPoint, error) {
	return parallel.Map(ctx, len(mags), workers, func(i int) (gae.EquilibriumPoint, error) {
		pt := gae.EquilibriumPoint{Param: mags[i]}
		pt.Stable = append(pt.Stable, s.StablePhases(mags[i], mags[i], opposite)...)
		return pt, nil
	})
}

// HoldsUnderMismatch checks the paper's design criterion: with S and R
// opposite and magnitudes mag and mag·(1+mismatch), a latch storing logic 1
// (Δφ = 0) must keep a stable equilibrium near Δφ = 0.
func (s *SRLatch) HoldsUnderMismatch(mag, mismatch float64) bool {
	sp := s.Cal.LogicPhasor(true, mag)
	rp := s.Cal.LogicPhasor(false, mag*(1+mismatch))
	m := s.Model(sp, rp)
	for _, e := range m.StableEquilibria() {
		if gae.CircularDistance(e.Dphi, 0) < 0.1 {
			return true
		}
	}
	return false
}

// FlipsWhenSet checks that with S = R = logic 1 at magnitude mag, the only
// stable equilibrium sits near Δφ = 0 (the latch is forced to 1 regardless
// of its previous state).
func (s *SRLatch) FlipsWhenSet(mag float64) bool {
	sp := s.Cal.LogicPhasor(true, mag)
	rp := s.Cal.LogicPhasor(true, mag)
	m := s.Model(sp, rp)
	st := m.StableEquilibria()
	if len(st) == 0 {
		return false
	}
	for _, e := range st {
		if gae.CircularDistance(e.Dphi, 0) > 0.1 {
			return false
		}
	}
	return true
}
