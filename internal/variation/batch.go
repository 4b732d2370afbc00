package variation

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/gae"
	"repro/internal/parallel"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// This file implements the batched Monte-Carlo path: instead of solving each
// sampled corner's PSS from a cold start (a 7-cycle settle, shoot from a
// kicked state), corners are evaluated K lanes at a time through
// pss.ShootAutonomousBatch over a circuit.Batch, warm-started from one
// nominal orbit — the nominal X0 replicated into every lane and per-lane
// period guesses scaled by the analytic estimate's frequency ratio. Process
// spreads of a few percent leave the corner orbits close to nominal, so a
// short settle (batchSettleCycles) suffices and the whole batch shares every
// structure-of-arrays device evaluation, through the batched PPV extraction
// too; the corners' GAE locking bands fan out in one call.

// CornerResult carries the full per-corner model chain for analyses that
// need more than scalar metrics — e.g. the noise BER/yield study, which
// needs each corner's GAE model and PPV to run stochastic phase transients.
type CornerResult struct {
	Metrics Metrics
	PPV     *ppv.PPV
	Model   *gae.Model // SHIL model at the standard SYNC injection (node 0, 100 µA, 2nd harmonic)
}

// DefaultBatchLanes is the default number of corners per batched PSS solve.
// Wide enough to amortize the per-batch nominal bookkeeping, narrow enough
// that one straggler corner does not hold many converged lanes hostage in
// the lockstep Newton.
const DefaultBatchLanes = 8

// batchSettleCycles is the warm-start settle length. Cold starts settle 7
// cycles to fall onto the limit cycle from a kicked state; starting on the
// nominal orbit a few cycles reach the corner's own cycle (validated against
// cold solves in the package tests).
const batchSettleCycles = 3

// nominalOrbit is the shared warm-start source for a batch of corners.
type nominalOrbit struct {
	ring *ringosc.Ring
	sol  *pss.Solution
}

// resolveNominal solves (or memoizes, with an engine) the nominal PSS orbit,
// the warm-start seed for the corner lanes.
func resolveNominal(ctx context.Context, eng *engine.Engine, nominal ringosc.Config) (nominalOrbit, error) {
	var r *ringosc.Ring
	var sol *pss.Solution
	var err error
	if eng != nil {
		r, sol, err = eng.RingPSS(ctx, nominal)
	} else if r, err = ringosc.Build(nominal); err == nil {
		sol, err = pss.ShootAutonomousCtx(ctx, r.Sys, r.KickStart(), pss.Options{
			GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 512,
		})
	}
	if err != nil {
		return nominalOrbit{}, fmt.Errorf("variation: nominal PSS: %w", err)
	}
	return nominalOrbit{ring: r, sol: sol}, nil
}

// batchEvalCorners evaluates one batch of corner configs through the
// warm-started batched shooting path. Lanes the batched Newton cannot crack
// — and structural failures like a batch that will not assemble — fall back
// to a cold solve of the corner alone (EvaluateEng), so the batched path is
// exactly as robust as calling EvaluateEng per corner.
func batchEvalCorners(ctx context.Context, eng *engine.Engine, nom nominalOrbit, cfgs []ringosc.Config) ([]CornerResult, error) {
	K := len(cfgs)
	out := make([]CornerResult, K)
	dm := diag.FromContext(ctx)

	rings := make([]*ringosc.Ring, K)
	systems := make([]*circuit.System, K)
	for k, cfg := range cfgs {
		r, err := ringosc.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("variation: corner %d: %w", k, err)
		}
		rings[k] = r
		systems[k] = r.Sys
	}

	var sols []*pss.Solution
	laneErrs := make([]error, K)
	b, err := circuit.NewBatch(systems)
	if err == nil {
		n := b.N
		x0 := make([]float64, K*n)
		guess := make([]float64, K)
		nomF0 := nom.ring.EstimatedF0()
		for k, r := range rings {
			copy(x0[k*n:(k+1)*n], nom.sol.X0)
			guess[k] = nom.sol.T0 * nomF0 / r.EstimatedF0()
		}
		sols, laneErrs, err = pss.ShootAutonomousBatch(ctx, b, x0, pss.BatchShootOptions{
			GuessT: guess, StepsPerPeriod: 512, SettleCycles: batchSettleCycles,
		})
		if err != nil {
			return nil, err // misuse or cancellation, not a per-lane failure
		}
	} else {
		// The corners do not share a batchable topology (e.g. heterogeneous
		// configs): every lane goes through the per-corner fallback below.
		for k := range laneErrs {
			laneErrs[k] = err
		}
	}

	// Batched PPV extraction over the surviving lanes — one circuit
	// evaluation per grid point for the whole batch — then one GAE fan-out:
	// the locking bands of every corner drain through a single
	// gae.LockingBandsCtx call rather than per-corner LockingBand loops.
	ppvs := make([]*ppv.PPV, K)
	models := make([]*gae.Model, K)
	if b != nil && sols != nil {
		pvs, perrs, perr := ppv.FromSolutionsBatch(ctx, b, sols)
		if perr != nil {
			return nil, perr
		}
		for k := range cfgs {
			if laneErrs[k] != nil {
				continue
			}
			if perrs[k] != nil {
				laneErrs[k] = perrs[k]
				continue
			}
			ppvs[k] = pvs[k]
			models[k] = gae.NewModel(pvs[k], sols[k].F0, stdSYNC())
		}
	}
	bands, berr := gae.LockingBandsCtx(ctx, models, 1)
	if berr != nil {
		return nil, berr
	}

	for k := range cfgs {
		dm.Inc(diag.SweepPoints)
		if laneErrs[k] == nil {
			out[k] = CornerResult{
				Metrics: Metrics{
					F0:        sols[k].F0,
					V1:        ppvs[k].NodeSeries[0].Magnitude(1),
					V2:        ppvs[k].NodeSeries[0].Magnitude(2),
					LockWidth: bands[k].F1Hi - bands[k].F1Lo,
				},
				PPV:   ppvs[k],
				Model: models[k],
			}
			continue
		}
		cr, serr := evaluateCornerEng(ctx, eng, cfgs[k])
		if serr != nil {
			return nil, fmt.Errorf("variation: corner %d (batched: %v): %w", k, laneErrs[k], serr)
		}
		out[k] = cr
	}
	return out, nil
}

// EvaluateBatchEng evaluates every corner configuration through the batched
// warm-started pipeline, seeded from the nominal configuration's orbit. All
// cfgs must share the nominal topology (same ring structure, different
// parameters) to batch; corners that cannot batch or converge fall back to
// a cold solve of the corner alone. A nil engine computes the nominal
// directly.
func EvaluateBatchEng(ctx context.Context, eng *engine.Engine, nominal ringosc.Config, cfgs []ringosc.Config) ([]CornerResult, error) {
	nom, err := resolveNominal(ctx, eng, nominal)
	if err != nil {
		return nil, err
	}
	return batchEvalCorners(ctx, eng, nom, cfgs)
}

// MonteCarloBatchEng draws n corners with smp and evaluates them through the
// batched PSS pipeline, `lanes` corners per batched solve (0 means
// DefaultBatchLanes), with up to `workers` batches in flight concurrently.
// It returns the samples (corner deltas + metrics, same shape as
// MonteCarloSampledEng) and the full per-corner model chains for downstream noise
// studies. Sample i's corner is smp.Draw(i) regardless of lane and worker
// geometry, so results are bit-stable under re-chunking only in the drawn
// corners; the solved metrics agree with the scalar path to solver tolerance
// (both converge the same periodicity residual), not bit-for-bit.
func MonteCarloBatchEng(ctx context.Context, eng *engine.Engine, base ringosc.Config, params []Param, n int, smp Sampler, lanes, workers int) ([]Sample, []CornerResult, error) {
	if lanes <= 0 {
		lanes = DefaultBatchLanes
	}
	nom, err := resolveNominal(ctx, eng, base)
	if err != nil {
		return nil, nil, err
	}
	chunks := (n + lanes - 1) / lanes
	type chunk struct {
		deltas  [][]float64
		corners []CornerResult
	}
	parts, err := parallel.MapWorkerCtx(ctx, chunks, workers, func(wctx context.Context, _, c int) (chunk, error) {
		lo := c * lanes
		hi := lo + lanes
		if hi > n {
			hi = n
		}
		ch := chunk{deltas: make([][]float64, hi-lo)}
		cfgs := make([]ringosc.Config, hi-lo)
		for i := lo; i < hi; i++ {
			deltas := make([]float64, len(params))
			smp.Draw(i, deltas)
			cfg := base
			for j, prm := range params {
				prm.Apply(&cfg, deltas[j])
			}
			ch.deltas[i-lo] = deltas
			cfgs[i-lo] = cfg
		}
		corners, err := batchEvalCorners(wctx, eng, nom, cfgs)
		if err != nil {
			return chunk{}, fmt.Errorf("variation: samples %d..%d: %w", lo, hi-1, err)
		}
		ch.corners = corners
		return ch, nil
	})
	if err != nil {
		return nil, nil, err
	}
	samples := make([]Sample, 0, n)
	corners := make([]CornerResult, 0, n)
	for _, p := range parts {
		for i := range p.corners {
			samples = append(samples, Sample{Deltas: p.deltas[i], Metrics: p.corners[i].Metrics})
		}
		corners = append(corners, p.corners...)
	}
	return samples, corners, nil
}
