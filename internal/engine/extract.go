package engine

import (
	"context"

	"repro/internal/ppv"
	"repro/internal/pss"
)

// The cold extraction behind every engine miss runs the oscillator as a
// one-lane batch: the PSS stage shoots it with pss.ShootAutonomousCtx and
// the PPV stage extracts with ppv.FromSolutionCtx, which build a one-lane
// circuit.Batch (~2 KB, microseconds) each, so cached artifacts hold none.
// Shooting and the adjoint are each written once, over the lockstep lanes
// (pss.ShootAutonomousBatch, ppv.FromSolutionsBatch): the lanes stamp
// devices through the SoA kernels, fold the post-Newton grid pass into the
// Newton run that detects convergence, evaluate the circuit once per PPV
// grid point, integrate BE, Trap and Gear2, and retake a step whose
// corrector fails in halves.
//
// The solve starts from the circuit's phase origin (node 0 rising through
// mid-rail; see package pss), found by a search over the last cycle of a
// coarse settle, so the settle is only a convergence aid: extractions that
// settled differently agree to within the shooting tolerance's effect on
// the converged orbit (TestColdExtractionIndependentOfSettle). The disk
// tier's payload schema tags mark artifacts of this origin, so none written
// before it is served.

// ColdPSS computes osc's periodic steady state exactly as an Engine miss
// does, without caching. A zero opt.GuessT is derived from osc.EstimatedF0.
func ColdPSS(ctx context.Context, osc Oscillator, opt pss.Options) (*pss.Solution, error) {
	if opt.GuessT == 0 {
		opt.GuessT = 1 / osc.EstimatedF0()
	}
	return pss.ShootAutonomousCtx(ctx, osc.System(), osc.InitialState(), opt)
}

// ColdPPV extracts the time-domain PPV of osc's steady state sol exactly as
// an Engine miss does, without caching.
func ColdPPV(ctx context.Context, osc Oscillator, sol *pss.Solution) (*ppv.PPV, error) {
	return ppv.FromSolutionCtx(ctx, osc.System(), sol)
}
