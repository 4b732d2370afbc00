package engine

import (
	"context"
	"errors"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/transient"
)

// The cold extraction behind every engine miss runs the oscillator as a
// one-lane batch, circuit.NewBatch([]*circuit.System{osc.System()}): the
// PSS stage shoots it with pss.ShootAutonomousBatch and the PPV stage
// extracts with ppv.FromSolutionsBatch. Each stage builds its own batch
// (~2 KB, microseconds), so cached artifacts hold none. Against the scalar
// ShootAutonomousCtx/FromSolutionCtx pair, the batch stamps devices through
// the SoA kernels, folds the post-Newton grid pass into the Newton run that
// detects convergence, and evaluates the circuit once per PPV grid point
// instead of twice.
//
// Both solves start from the circuit's phase origin (node 0 rising through
// mid-rail; see package pss), found by the same search over the last cycle
// of the same coarse settle, so the settle is only a convergence aid: the
// scalar and batched solves return the same f0 and raw PPV harmonics to
// about 1e-12 relative with the same Newton count
// (TestColdPathMatchesScalar), and extractions that settled differently
// agree to within the shooting tolerance's effect on the converged orbit
// (TestColdExtractionIndependentOfSettle). The disk tier's payload schema
// tags mark artifacts of this origin, so none written before it is served.
//
// The scalar shooting solve stays the PSS stage's fallback, so every input
// it solves still solves. It runs, and its result is returned, for Gear2
// (the lockstep stepper integrates BE and Trap only) and for a lane whose
// integration failed: the lockstep stepper has no step-halving retry, so a
// corrector failure can end the batched solve where the scalar one halves
// its step and converges (TestColdPathFallsBackOnLaneFailure). An orbit the
// solve refuses — a
// fixed point, no phase crossing, no multiplier near 1 — is returned as is,
// since the scalar solve runs the same checks on the same orbit. The PPV
// stage needs no fallback: the batched adjoint fails exactly where the
// scalar one does.

// ColdPSS computes osc's periodic steady state exactly as an Engine miss
// does, without caching. A zero opt.GuessT is derived from osc.EstimatedF0.
func ColdPSS(ctx context.Context, osc Oscillator, opt pss.Options) (*pss.Solution, error) {
	if opt.GuessT == 0 {
		opt.GuessT = 1 / osc.EstimatedF0()
	}
	sys, x0 := osc.System(), osc.InitialState()
	if opt.Method == transient.Gear2 {
		return pss.ShootAutonomousCtx(ctx, sys, x0, opt)
	}
	b, err := circuit.NewBatch([]*circuit.System{sys})
	if err != nil {
		return nil, err
	}
	sp := diag.SpanFrom(ctx, "pss.shoot")
	sols, errs, err := pss.ShootAutonomousBatch(ctx, b, x0, pss.BatchShootOptions{
		GuessT:         []float64{opt.GuessT},
		StepsPerPeriod: opt.StepsPerPeriod,
		MaxIter:        opt.MaxIter,
		Tol:            opt.Tol,
		Method:         opt.Method,
		Backend:        opt.Backend,
		SettleCycles:   opt.SettleCycles,
	})
	sp.End()
	switch {
	case err != nil:
		return nil, err
	case errs[0] == nil:
		return sols[0], nil
	case errors.Is(errs[0], pss.ErrFixedPoint), errors.Is(errs[0], pss.ErrNoPhaseCrossing), errors.Is(errs[0], pss.ErrNotAutonomous):
		return nil, errs[0]
	}
	return pss.ShootAutonomousCtx(ctx, sys, x0, opt)
}

// ColdPPV extracts the time-domain PPV of osc's steady state sol exactly as
// an Engine miss does, without caching.
func ColdPPV(ctx context.Context, osc Oscillator, sol *pss.Solution) (*ppv.PPV, error) {
	if sol == nil {
		return nil, errors.New("engine: ColdPPV needs a PSS solution")
	}
	b, err := circuit.NewBatch([]*circuit.System{osc.System()})
	if err != nil {
		return nil, err
	}
	sp := diag.SpanFrom(ctx, "ppv.adjoint")
	ps, errs, err := ppv.FromSolutionsBatch(ctx, b, []*pss.Solution{sol})
	sp.End()
	if err != nil {
		return nil, err
	}
	return ps[0], errs[0]
}
