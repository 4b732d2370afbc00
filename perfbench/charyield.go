package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/ringosc"
	"repro/internal/variation"
)

// char-yield: one seeded parametric-yield study per op around a seeded
// design — corners through the batched PSS/PPV/GAE lanes
// (variation.MonteCarloBatchEng), per-corner BER ensembles on the SoA
// stochastic lanes (variation.CornerBERs), and noise.Yield. The BER
// options are phlogon-char yield's defaults except the observation window
// and the diffusion.

// A study is sized so that a 25 s run holds several windows of the 100
// studies a p90 needs even when the host runs slow: 8 corners (one batched
// solve) and 5 bit-slots, a quarter of phlogon-char yield's 20.
const (
	yieldCorners  = 8
	yieldLanes    = 8 // corners per batched PSS solve
	yieldMembers  = 16
	yieldTBit     = 0.05
	yieldBitSlots = 5
	yieldDt       = 1e-4
	// yieldD is the phase diffusion, cycles²/s. At phlogon-char's default
	// 5e-3 no corner ever hops, so every yield is 1 and the hop counts in
	// the digest are all 0; at 5 the corners hop at rates from 0 to
	// hundreds per ensemble and the yield discriminates between them.
	yieldD      = 5.0
	yieldTarget = 1e-2
)

type yieldResult struct {
	f0    []float64
	hops  []int
	yield float64
}

type charYield struct {
	r     *run
	eng   *engine.Engine
	first *yieldResult // op 0's result, replayed at run end
}

func (w *charYield) conns() int { return 1 }
func (w *charYield) close()     {}

// setup extracts every design cold; they are the studies' nominal orbits.
func (w *charYield) setup(ctx context.Context, r *run) error {
	w.r = r
	w.first = nil
	w.eng = engine.New(engine.Options{Workers: 1})
	for _, d := range r.designs {
		if _, _, _, err := w.eng.RingPPV(ctx, d.Cfg); err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
	}
	return nil
}

// study runs op i's yield study and checks its outputs.
func (w *charYield) study(ctx context.Context, i int, out *outcome) *yieldResult {
	in := drawOp(w.r.seed, i, 0)
	d := w.r.designs[in.Design]
	out.what = describe("design", d, "corner_seed", in.Seed)
	out.corners = yieldCorners
	params := variation.StandardParams()
	t0 := time.Now()
	samples, corners, err := variation.MonteCarloBatchEng(ctx, w.eng, d.Cfg, params, yieldCorners,
		variation.PseudoSampler{Seed: in.Seed}, yieldLanes, 1)
	t1 := time.Now()
	out.mcNs = float64(t1.Sub(t0))
	if err != nil {
		out.err = err
		return nil
	}
	bers, err := variation.CornerBERs(ctx, corners, yieldD, noise.BEROptions{
		TBit: yieldTBit, Bits: yieldBitSlots, Members: yieldMembers, Dt: yieldDt,
		Seed: subSeed(in.Seed, 1, 0), Workers: 1, Lanes: yieldMembers,
	})
	out.berNs = float64(time.Since(t1))
	if err != nil {
		out.err = err
		return nil
	}
	nomRing, nom, err := w.eng.RingPSS(ctx, d.Cfg)
	if err != nil {
		out.err = err
		return nil
	}
	if len(corners) != yieldCorners {
		out.err = fmt.Errorf("%d corners, want %d", len(corners), yieldCorners)
		return nil
	}
	res := &yieldResult{}
	bv := make([]float64, len(bers))
	for k, c := range corners {
		f0 := c.Metrics.F0
		res.f0 = append(res.f0, f0)
		res.hops = append(res.hops, bers[k].Hops)
		bv[k] = bers[k].BER
		out.latchCycles += yieldMembers * yieldTBit * yieldBitSlots * f0
		out.rec = append(out.rec, f0, bers[k].Hops)
		if out.err != nil {
			continue
		}
		cfg := d.Cfg
		for j, p := range params {
			p.Apply(&cfg, samples[k].Deltas[j])
		}
		if err := checkCornerF0(cfg, f0, nomRing.EstimatedF0(), nom.F0); err != nil {
			out.err = fmt.Errorf("corner %d: %w", k, err)
		} else if bers[k].Bits != yieldMembers*yieldBitSlots {
			out.err = fmt.Errorf("corner %d: %d bit-slots observed, want %d", k, bers[k].Bits, yieldMembers*yieldBitSlots)
		}
	}
	res.yield = noise.Yield(bv, yieldTarget)
	out.rec = append(out.rec, res.yield)
	return res
}

// checkCornerF0 holds a corner's f0, relative to its nominal design's, to
// the ratio the ring's analytic frequency estimate predicts for the
// corner's parameters. Over 768 corners of ±3σ StandardParams draws the two
// ratios agree within 0.83–1.12, while f0 itself spans 0.64–1.58 of
// nominal; a solve that lands on a harmonic or diverges misses by 2× or
// more.
func checkCornerF0(cfg ringosc.Config, f0, nomEst, nomF0 float64) error {
	r, err := ringosc.Build(cfg)
	if err != nil {
		return err
	}
	if q := (f0 / nomF0) / (r.EstimatedF0() / nomEst); !(q > 2.0/3 && q < 1.5) {
		return fmt.Errorf("f0 %g Hz is %.3g× what the analytic estimate predicts from the nominal %g Hz", f0, q, nomF0)
	}
	return nil
}

func (w *charYield) op(ctx context.Context, _, i int) outcome {
	var out outcome
	res := w.study(ctx, i, &out)
	if i == 0 && out.err == nil {
		w.first = res
	}
	return out
}

// finish replays op 0; its result must match bit for bit.
func (w *charYield) finish(ctx context.Context, r *run) {
	var out outcome
	res := w.study(ctx, 0, &out)
	err := out.err
	if err == nil && (w.first == nil || !sameYield(w.first, res)) {
		err = fmt.Errorf("replay of op 0 differs from its first run")
	}
	r.tally.record("replay op=0 "+out.what, err)
}

func sameYield(a, b *yieldResult) bool {
	if len(a.f0) != len(b.f0) || a.yield != b.yield {
		return false
	}
	for k := range a.f0 {
		if a.f0[k] != b.f0[k] || a.hops[k] != b.hops[k] {
			return false
		}
	}
	return true
}

func (w *charYield) layers(ctx context.Context, r *run, lm layerMetrics) {
	r0, sol, _, err := w.eng.RingPPV(ctx, r.designs[0].Cfg)
	if err == nil {
		err = circuitUnits(lm, r0.Sys, sol.X0, sol.T0/512)
	}
	if err == nil {
		err = inProcessLayers(ctx, r, lm, w.eng, "variation.mc_frac", "noise.ber_frac")
	}
	r.tally.record("layer unit costs", err)
}
