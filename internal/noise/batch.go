package noise

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/diag"
	"repro/internal/gae"
	"repro/internal/parallel"
)

// This file is the one stochastic stepper: K ensemble lanes of the same
// compiled GAE advance through one dense Euler–Maruyama sweep per time
// step, mirroring the lane discipline of circuit.Batch at the
// phase-equation level. StochasticTransient is its one-lane call.
//
// Bit-identity argument. A lane's floating-point history is determined by
// (Dphi0, the compiled RHS kernel, Dt, D, and its RNG seed); every batched
// operation — gae.CompiledG.RHSBatch, the noise add, the hop counter — is
// element-wise, so neither the lane width nor the position a lane occupies
// in the SoA arrays can change a lane's op sequence. A lane is therefore
// bit-identical (trajectory and hop count) to StochasticTransient with its
// seed, regardless of how callers group lanes into batches.

// BatchOptions configures StochasticBatch. Every lane of a batch shares
// them; a lane is just its RNG seed.
type BatchOptions struct {
	Dphi0 float64 // initial phase, cycles
	D     float64 // phase diffusion, cycles²/s
	T0    float64 // start time, s
	T1    float64 // end time, s
	Dt    float64 // Euler–Maruyama step, s
	// Record retains the full T/Dphi trajectory of every lane. BER-style
	// hop counting leaves it false: hops are counted in-loop and the
	// trajectories are never materialized.
	Record bool
}

// StochasticBatch integrates one lane per seed through the compiled GAE cg
// with additive phase diffusion, returning one StochasticResult per lane
// (in seed order). The grid is t = T0 + k·Dt over the whole Dt intervals in
// [T0, T1]; an empty window gives results with no samples and zero hops.
// Each lane reproduces StochasticTransient with its seed bit for bit — see
// the bit-identity argument above. On cancellation every result is nil and
// ctx.Err() is returned.
func StochasticBatch(ctx context.Context, cg *gae.CompiledG, seeds []int64, opt BatchOptions) ([]*StochasticResult, error) {
	defer diag.SpanFrom(ctx, "noise.batch").End()
	met := diag.FromContext(ctx)
	results := make([]*StochasticResult, len(seeds))
	// steps = number of whole Dt intervals in [T0, T1]; the relative guard
	// keeps exact divisions (0.7/0.1, 1/0.1) from flooring one short.
	steps := int(math.Floor((opt.T1 - opt.T0) / opt.Dt * (1 + 1e-12)))
	for l := range results {
		r := &StochasticResult{}
		if opt.Record && steps >= 0 {
			r.T = make([]float64, steps+1)
			r.Dphi = make([]float64, steps+1)
		}
		results[l] = r
	}
	if steps < 0 || len(seeds) == 0 {
		return results, nil
	}

	// SoA lane state.
	x := make([]float64, len(seeds))
	rhs := make([]float64, len(seeds))
	rngs := make([]*rand.Rand, len(seeds))
	hcs := make([]hopCounter, len(seeds))
	for l, s := range seeds {
		x[l] = opt.Dphi0
		rngs[l] = rand.New(rand.NewSource(s))
		hcs[l] = hopCounter{basin: nearestBasin(opt.Dphi0)}
	}
	sd := math.Sqrt(opt.D * opt.Dt)
	for k := 0; ; k++ {
		for l, r := range results {
			if opt.Record {
				r.T[k] = opt.T0 + float64(k)*opt.Dt
				r.Dphi[k] = x[l]
			}
			hcs[l].observe(x[l])
		}
		if k == steps {
			break
		}
		if (k+1)&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				clear(results)
				return results, err
			}
		}
		met.Inc(diag.StochBatchSteps)
		met.Add(diag.StochBatchLaneSteps, int64(len(x)))
		// One dense sweep: compiled RHS over all lanes, then the per-lane
		// noise add x += RHS(x)·dt + √(D·dt)·ξ.
		cg.RHSBatch(x, rhs)
		for l := range x {
			x[l] += rhs[l]*opt.Dt + sd*rngs[l].NormFloat64()
		}
	}
	for l, r := range results {
		r.Hops = hcs[l].hops
	}
	return results, nil
}

// DefaultEnsembleLanes is the SoA lane width ensembles are chunked into when
// the caller does not choose one. Wide enough to amortize the sweep
// overhead, narrow enough that a few groups still spread across workers.
const DefaultEnsembleLanes = 64

// batchedEnsemble chunks n members into groups of lanes (≤0:
// DefaultEnsembleLanes) and integrates each group through StochasticBatch,
// member i on the seed parallel.SubSeed(seed, i). The grouping is a pure
// function of (n, lanes), so the output is bit-identical at any worker
// count.
func batchedEnsemble(ctx context.Context, m *gae.Model, opt BatchOptions, seed int64, n, workers, lanes int) ([]*StochasticResult, error) {
	if lanes <= 0 {
		lanes = DefaultEnsembleLanes
	}
	cg := m.Compile()
	diag.FromContext(ctx).Inc(diag.CompiledGCompiles)
	groups := (n + lanes - 1) / lanes
	chunks, err := parallel.MapWorkerCtx(ctx, groups, workers, func(wctx context.Context, _, gi int) ([]*StochasticResult, error) {
		lo := gi * lanes
		seeds := make([]int64, min(lanes, n-lo))
		for j := range seeds {
			seeds[j] = parallel.SubSeed(seed, lo+j)
		}
		diag.FromContext(wctx).Add(diag.EnsembleRuns, int64(len(seeds)))
		return StochasticBatch(wctx, cg, seeds, opt)
	})
	out := make([]*StochasticResult, n)
	for gi, ch := range chunks {
		copy(out[gi*lanes:], ch)
	}
	return out, err
}
