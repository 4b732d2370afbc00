package xval

import (
	"context"
	"sync"

	"repro/internal/engine"
	"repro/internal/phasemacro"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// Fixtures caches the expensive shared artifacts the ledger cases compare:
// the two ring variants with their shooting PSS and adjoint PPV (resolved
// through a memoizing engine.Engine, so concurrent cases coalesce into one
// solve per artifact), the refined harmonic-balance solution with its PPV-HB
// extraction, and the latch calibrations. Construction mirrors figs.Context
// (StepsPerPeriod 1024, workers-bounded PPV fan-out) so the ledger certifies
// the same numerical route the figures are generated from.
//
// Getters take the calling case's context: cancellation flows into the
// solves, and the construction cost lands on the diagnostics of whichever
// case triggers it first (the same attribution DurationMS has always had).
type Fixtures struct {
	// Workers bounds internal fan-out (adjoint PPV columns); ≤ 0: one per CPU.
	Workers int

	eng *engine.Engine

	onceHB sync.Once
	hb1    *pss.HBSolution
	hbPPV1 *ppv.PPV
	hbErr  error

	onceCal sync.Once
	cal     phasemacro.Calibration
	calErr  error

	onceAdderCal sync.Once
	adderCal     phasemacro.Calibration
	adderCalErr  error
}

// HBHarmonics is the truncation order of the harmonic-balance fixture.
// 20 harmonics resolve the ring waveform to the 1e-10 residual RefineHBCtx
// converges to; the comparison tolerances in cases_*.go assume this order.
const HBHarmonics = 20

// CalSyncAmp is the SYNC amplitude (A) of the FSM calibration fixture,
// matching figs.Context and the phlogic defaults.
const CalSyncAmp = 100e-6

// AdderCalSyncAmp matches the SPICE-level adder tests (Fig. 10's 120 µA
// operating point), where the latch is driven harder than the default.
const AdderCalSyncAmp = 120e-6

// NewFixtures returns an empty fixture cache.
func NewFixtures(workers int) *Fixtures {
	return &Fixtures{Workers: workers, eng: engine.New(engine.Options{Workers: workers})}
}

// Ring1 returns the 1N1P (paper Fig. 3) ring chain: circuit, shooting PSS,
// adjoint PPV.
func (fx *Fixtures) Ring1(ctx context.Context) (*ringosc.Ring, *pss.Solution, *ppv.PPV, error) {
	return fx.eng.RingPPV(ctx, ringosc.DefaultConfig())
}

// Ring2 returns the 2N1P variant chain.
func (fx *Fixtures) Ring2(ctx context.Context) (*ringosc.Ring, *pss.Solution, *ppv.PPV, error) {
	return fx.eng.RingPPV(ctx, ringosc.Config2N1P())
}

// HB1 returns the refined harmonic-balance solution of the 1N1P ring and
// the PPV extracted from its HB Jacobian (the frequency-domain route the
// time-domain adjoint is checked against).
func (fx *Fixtures) HB1(ctx context.Context) (*pss.HBSolution, *ppv.PPV, error) {
	fx.onceHB.Do(func() {
		r, sol, _, err := fx.Ring1(ctx)
		if err != nil {
			fx.hbErr = err
			return
		}
		hb := pss.HBFromSolution(r.Sys, sol, HBHarmonics)
		if err := pss.RefineHBCtx(ctx, r.Sys, hb, 20, 1e-10); err != nil {
			fx.hbErr = err
			return
		}
		coefs, err := hb.PPVHB()
		if err != nil {
			fx.hbErr = err
			return
		}
		fx.hb1 = hb
		fx.hbPPV1 = ppv.FromHBCoefficients(sol, coefs)
	})
	return fx.hb1, fx.hbPPV1, fx.hbErr
}

// Cal returns the latch calibration at the default 100 µA SYNC operating
// point (used by the phase-macromodel FSM).
func (fx *Fixtures) Cal(ctx context.Context) (phasemacro.Calibration, error) {
	fx.onceCal.Do(func() {
		_, _, p, err := fx.Ring1(ctx)
		if err != nil {
			fx.calErr = err
			return
		}
		l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: CalSyncAmp}
		fx.cal, fx.calErr = phasemacro.Calibrate(l, 10e3)
	})
	return fx.cal, fx.calErr
}

// AdderCal returns the calibration at the 120 µA operating point used when
// the macromodel FSM is compared to the transistor-level adder.
func (fx *Fixtures) AdderCal(ctx context.Context) (phasemacro.Calibration, error) {
	fx.onceAdderCal.Do(func() {
		_, _, p, err := fx.Ring1(ctx)
		if err != nil {
			fx.adderCalErr = err
			return
		}
		l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: AdderCalSyncAmp}
		fx.adderCal, fx.adderCalErr = phasemacro.Calibrate(l, 10e3)
	})
	return fx.adderCal, fx.adderCalErr
}
