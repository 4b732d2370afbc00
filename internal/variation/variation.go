// Package variation adds parameter-variability analysis to the design
// tools, in the spirit of the PV-PPV work the paper cites ([20], Wang, Lai,
// Roychowdhury DAC 2007): how do manufacturing spreads in device
// transconductance, threshold voltage and load capacitance move the latch's
// free-running frequency, PPV harmonics, and SHIL locking range? Both
// one-at-a-time sensitivities (central differences through the full
// PSS→PPV→GAE pipeline) and seeded Monte-Carlo sampling are provided.
//
// The paper's intro names variability as one of the barriers motivating
// phase logic; this module lets a designer check that a latch design holds
// its locking margins across corners.
package variation

import (
	"context"
	"fmt"
	"math"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/gae"
	"repro/internal/parallel"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// Param is one varying design/process parameter. Apply perturbs a config by
// delta, measured in units of Sigma (so delta = 1 is a +1σ corner).
type Param struct {
	Name  string
	Sigma float64 // relative 1σ spread (e.g. 0.05 for 5 %)
	Apply func(cfg *ringosc.Config, delta float64)
}

// StandardParams returns the usual process spreads for the ring latch:
// NMOS/PMOS Beta (transconductance), threshold voltages, and the load
// capacitor tolerance.
func StandardParams() []Param {
	return []Param{
		{Name: "beta_n", Sigma: 0.10, Apply: func(c *ringosc.Config, d float64) {
			c.NMOS.Beta *= 1 + 0.10*d
		}},
		{Name: "beta_p", Sigma: 0.10, Apply: func(c *ringosc.Config, d float64) {
			c.PMOS.Beta *= 1 + 0.10*d
		}},
		{Name: "vt0_n", Sigma: 0.05, Apply: func(c *ringosc.Config, d float64) {
			c.NMOS.VT0 *= 1 + 0.05*d
		}},
		{Name: "vt0_p", Sigma: 0.05, Apply: func(c *ringosc.Config, d float64) {
			c.PMOS.VT0 *= 1 + 0.05*d
		}},
		{Name: "cload", Sigma: 0.10, Apply: func(c *ringosc.Config, d float64) {
			c.CLoad *= 1 + 0.10*d
		}},
	}
}

// Metrics are the latch figures of merit tracked across variations.
type Metrics struct {
	F0        float64 // free-running frequency, Hz
	V1, V2    float64 // PPV harmonic magnitudes at the injection node
	LockWidth float64 // SHIL locking band width at 100 µA SYNC, Hz
}

// NewEngine returns a memoizing analysis engine configured for this
// package's pipeline: variation analyses use the coarser 512-step PSS grid
// (×2 faster than the figure-quality 1024 grid, and the golden numbers in
// the tests and EXPERIMENTS.md are pinned to it).
func NewEngine(workers int) *engine.Engine {
	return engine.New(engine.Options{
		Workers: workers,
		PSS:     pss.Options{StepsPerPeriod: 512},
	})
}

// EvaluateEng runs the full pipeline (build → PSS → PPV → GAE band) for a
// configuration, resolving the PSS→PPV chain through a memoizing engine
// (see NewEngine): repeated corners — the nominal point of every
// sensitivity run, or identical Monte-Carlo re-runs — coalesce into one
// computation. A nil engine computes directly. Each call builds its own
// circuit and workspaces, so any number of evaluations may run
// concurrently.
func EvaluateEng(ctx context.Context, eng *engine.Engine, cfg ringosc.Config) (Metrics, error) {
	cr, err := evaluateCornerEng(ctx, eng, cfg)
	if err != nil {
		return Metrics{}, err
	}
	return cr.Metrics, nil
}

// evaluateCornerEng runs the scalar pipeline and keeps the full model chain
// (PPV and GAE model) alongside the scalar metrics.
func evaluateCornerEng(ctx context.Context, eng *engine.Engine, cfg ringosc.Config) (CornerResult, error) {
	var sol *pss.Solution
	var p *ppv.PPV
	var err error
	if eng != nil {
		_, sol, p, err = eng.RingPPV(ctx, cfg)
		if err != nil {
			return CornerResult{}, err
		}
	} else {
		var r *ringosc.Ring
		r, err = ringosc.Build(cfg)
		if err != nil {
			return CornerResult{}, err
		}
		sol, err = pss.ShootAutonomousCtx(ctx, r.Sys, r.KickStart(), pss.Options{
			GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 512,
		})
		if err != nil {
			return CornerResult{}, err
		}
		p, err = ppv.FromSolutionCtx(ctx, r.Sys, sol)
		if err != nil {
			return CornerResult{}, err
		}
	}
	return cornerFromPPV(sol, p), nil
}

// stdSYNC is the standard SYNC injection every corner metric is quoted at.
func stdSYNC() gae.Injection { return gae.Injection{Node: 0, Amp: 100e-6, Harmonic: 2} }

// cornerFromPPV derives the per-corner metrics and SHIL model from a solved
// PSS orbit and its PPV, with the package's standard SYNC injection.
func cornerFromPPV(sol *pss.Solution, p *ppv.PPV) CornerResult {
	m := gae.NewModel(p, sol.F0, stdSYNC())
	lo, hi := m.LockingBand()
	return CornerResult{
		Metrics: Metrics{
			F0:        sol.F0,
			V1:        p.NodeSeries[0].Magnitude(1),
			V2:        p.NodeSeries[0].Magnitude(2),
			LockWidth: hi - lo,
		},
		PPV:   p,
		Model: m,
	}
}

// Sensitivity is the central-difference derivative of each metric with
// respect to one parameter, per +1σ.
type Sensitivity struct {
	Param string
	// Relative changes of each metric for a +1σ move.
	DF0, DV1, DV2, DLockWidth float64
}

// SensitivitiesEng computes one-at-a-time ±1σ central differences through
// the whole pipeline. After the nominal point, the 2·len(params) corner
// evaluations (each a full PSS→PPV→GAE pipeline, by far the dominant cost)
// run concurrently on up to workers goroutines; results are bit-identical
// at any worker count. The corner pipelines resolve through a memoizing
// engine (nil: compute directly): sharing one engine between the
// sensitivity and Monte-Carlo passes of a characterization run makes the
// repeated nominal evaluation free.
func SensitivitiesEng(ctx context.Context, eng *engine.Engine, base ringosc.Config, params []Param, workers int) ([]Sensitivity, error) {
	nom, err := EvaluateEng(ctx, eng, base)
	if err != nil {
		return nil, fmt.Errorf("variation: nominal evaluation: %w", err)
	}
	if err := checkNominal(nom); err != nil {
		return nil, fmt.Errorf("variation: %w", err)
	}
	// Corner 2i is param i at +1σ, corner 2i+1 at −1σ.
	corners, err := parallel.MapWorkerCtx(ctx, 2*len(params), workers, func(wctx context.Context, _, i int) (Metrics, error) {
		diag.FromContext(wctx).Inc(diag.SweepPoints)
		prm := params[i/2]
		cfg := base
		sign := +1.0
		dir := "+1σ"
		if i%2 == 1 {
			sign = -1.0
			dir = "−1σ"
		}
		prm.Apply(&cfg, sign)
		m, err := EvaluateEng(wctx, eng, cfg)
		if err != nil {
			return Metrics{}, fmt.Errorf("variation: %s %s: %w", prm.Name, dir, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Sensitivity, 0, len(params))
	for i, prm := range params {
		mu, md := corners[2*i], corners[2*i+1]
		out = append(out, Sensitivity{
			Param:      prm.Name,
			DF0:        (mu.F0 - md.F0) / 2 / nom.F0,
			DV1:        (mu.V1 - md.V1) / 2 / nom.V1,
			DV2:        (mu.V2 - md.V2) / 2 / nom.V2,
			DLockWidth: (mu.LockWidth - md.LockWidth) / 2 / nom.LockWidth,
		})
	}
	return out, nil
}

// ErrDegenerateNominal reports that a nominal metric used as the
// denominator of a relative sensitivity is zero — typically a non-locking
// nominal design (LockWidth == 0). Sensitivities are relative changes, so a
// zero nominal would silently propagate NaN/Inf into every downstream
// margin calculation.
var ErrDegenerateNominal = fmt.Errorf("variation: degenerate nominal metric")

// checkNominal returns a wrapped ErrDegenerateNominal naming the first zero
// nominal metric, or nil if all relative-sensitivity denominators are sound.
func checkNominal(nom Metrics) error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"F0", nom.F0},
		{"V1", nom.V1},
		{"V2", nom.V2},
		{"LockWidth", nom.LockWidth},
	} {
		if c.v == 0 {
			return fmt.Errorf("nominal %s is zero, relative sensitivities are undefined: %w", c.name, ErrDegenerateNominal)
		}
	}
	return nil
}

// Sample is one Monte-Carlo draw.
type Sample struct {
	Deltas  []float64 // per-parameter draws, in σ units
	Metrics Metrics
}

// Stats summarizes mean and relative standard deviation of each metric.
type Stats struct {
	MeanF0, RelStdF0               float64
	MeanLockWidth, RelStdLockWidth float64
	MeanV2, RelStdV2               float64
}

// Summarize computes Monte-Carlo statistics. The spreads are sample
// standard deviations (Bessel's n−1 correction): the samples estimate an
// underlying process distribution, and the population formula is biased low
// — materially so at the small n typical of full-pipeline Monte Carlo. With
// a single sample the spread is reported as 0.
func Summarize(samples []Sample) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	meanStd := func(get func(Metrics) float64) (mean, rel float64) {
		for _, s := range samples {
			mean += get(s.Metrics)
		}
		mean /= float64(len(samples))
		var v float64
		for _, s := range samples {
			d := get(s.Metrics) - mean
			v += d * d
		}
		if len(samples) > 1 {
			v /= float64(len(samples) - 1)
		} else {
			v = 0
		}
		if mean != 0 {
			rel = math.Sqrt(v) / math.Abs(mean)
		}
		return mean, rel
	}
	var st Stats
	st.MeanF0, st.RelStdF0 = meanStd(func(m Metrics) float64 { return m.F0 })
	st.MeanLockWidth, st.RelStdLockWidth = meanStd(func(m Metrics) float64 { return m.LockWidth })
	st.MeanV2, st.RelStdV2 = meanStd(func(m Metrics) float64 { return m.V2 })
	return st
}

// WorstCaseDetuning answers the designer's question directly: given the
// Monte-Carlo f0 spread, how much SYNC amplitude guarantees that every
// sampled latch still locks when driven at the nominal f1? Returns the
// largest |f0,sample − f1| and the SYNC amplitude A = |Δf|/(f0·|V2|) needed
// to cover it with the nominal PPV.
func WorstCaseDetuning(samples []Sample, f1 float64, nominalV2 float64) (worstDf, requiredSync float64) {
	for _, s := range samples {
		if d := math.Abs(s.Metrics.F0 - f1); d > worstDf {
			worstDf = d
		}
	}
	if nominalV2 > 0 && f1 > 0 {
		requiredSync = worstDf / (f1 * nominalV2)
	}
	return worstDf, requiredSync
}
