package noise

import (
	"context"
	"fmt"

	"repro/internal/diag"
	"repro/internal/gae"
)

// This file estimates storage bit-error rates for a SHIL-locked phase latch
// by brute-force counting of Kramers hops in the stochastic GAE: a stored
// bit is a lock basin, and every committed basin transition during the
// observation window (see CountHops' hysteresis rule) destroys one stored
// bit. Combined with per-corner GAE models from a Monte-Carlo run, this
// turns into a parametric-yield estimate: the fraction of process corners
// whose latch meets a BER target.

// BEROptions configures EstimateBER.
type BEROptions struct {
	Dphi0   float64 // initial phase offset from the lock, cycles
	TBit    float64 // storage time per bit-slot, s
	Bits    int     // bit-slots observed per ensemble member
	Members int     // independent trajectories
	Dt      float64 // Euler–Maruyama step, s
	Seed    int64   // ensemble seed (member i uses parallel.SubSeed(Seed, i))
	Workers int     // worker pool size (<= 0: one per CPU)
	Lanes   int     // SoA lane width per StochasticBatch (≤0: DefaultEnsembleLanes)
}

// BERResult is a hop-counting bit-error estimate.
type BERResult struct {
	Hops int     // committed basin hops across the ensemble
	Bits int     // observed bit-slots (Members · Bits)
	BER  float64 // Hops / Bits
}

// EstimateBER integrates Members stochastic GAE trajectories of length
// TBit·Bits with phase diffusion d (cycles²/s) and counts committed
// lock-basin hops as bit errors. Members run in SoA lane groups
// (StochasticBatch) with in-loop hop counting, so no trajectory is ever
// materialized. The estimate is reproducible for a given Seed at any worker
// count and lane width. Note the resolution floor: with zero observed hops
// the true BER is only bounded, roughly BER ≲ 1/Bits at 63 % confidence.
func EstimateBER(ctx context.Context, m *gae.Model, d float64, opt BEROptions) (BERResult, error) {
	if opt.TBit <= 0 || opt.Bits <= 0 || opt.Members <= 0 || opt.Dt <= 0 {
		return BERResult{}, fmt.Errorf("noise: EstimateBER needs positive TBit, Bits, Members, Dt (got %g, %d, %d, %g)",
			opt.TBit, opt.Bits, opt.Members, opt.Dt)
	}
	// Like StochasticEnsemble, but with trajectory recording off: members
	// carry only their in-loop hop counts.
	span := diag.SpanFrom(ctx, "noise.ensemble")
	ens, err := batchedEnsemble(ctx, m, BatchOptions{Dphi0: opt.Dphi0, D: d, T1: opt.TBit * float64(opt.Bits), Dt: opt.Dt},
		opt.Seed, opt.Members, opt.Workers, opt.Lanes)
	span.End()
	res := BERResult{}
	for _, r := range ens {
		if r == nil {
			continue // cancelled before this member ran
		}
		res.Hops += r.Hops
		res.Bits += opt.Bits
	}
	if res.Bits > 0 {
		res.BER = float64(res.Hops) / float64(res.Bits)
	}
	return res, err
}

// Yield returns the fraction of corners whose BER is at or below target. An
// empty slice yields 0.
func Yield(bers []float64, target float64) float64 {
	if len(bers) == 0 {
		return 0
	}
	pass := 0
	for _, b := range bers {
		if b <= target {
			pass++
		}
	}
	return float64(pass) / float64(len(bers))
}
