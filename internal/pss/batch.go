package pss

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/transient"
)

// This file implements autonomous shooting, written once for K parameter
// corners of one topology: they converge to their limit cycles together,
// with every settle run and shooting iteration integrated as one lockstep
// transient.RunBatch (the inner transients are where a shooting solve spends
// essentially all of its time, so batching them batches the solve). A single
// circuit is a one-lane batch (ShootAutonomousCtx), and lanes are
// independent, so a corner converges to the same bits alone or among others.
// Newton runs record their trajectories, so the run that detects a lane's
// convergence doubles as that lane's grid pass: no sensitivity period is
// re-run after convergence. The bordered Newton updates stay per-lane and
// dense — each lane has its own period iterate T[k] and its own monodromy —
// and lanes drop out of the batch as they converge or fail, so one slow
// corner never blocks the rest.
//
// Monte-Carlo/corner ensembles warm-start from a nominal solution: seed
// every lane with the nominal orbit's X0, scale the per-lane period guesses
// by the corners' estimated frequency ratios, and a few settle cycles
// replace a cold start's seven.

// BatchShootOptions tunes a batched autonomous shooting solve.
type BatchShootOptions struct {
	// GuessT holds per-lane initial period guesses (required, length K).
	GuessT []float64
	// StepsPerPeriod, MaxIter, Tol, Method and Backend mean exactly what they
	// mean in Options (defaults 512, 30, 1e-7 V).
	StepsPerPeriod int
	MaxIter        int
	Tol            float64
	Method         transient.Method
	Backend        linalg.Backend
	// SettleCycles means what it means in Options (default 7): each lane
	// settles this many free-running cycles and starts at its phase origin.
	// Warm-started ensembles set a small count; a negative value skips the
	// settle and the phase search entirely.
	SettleCycles int
}

// ShootAutonomousBatch finds the limit cycle of every lane of b, starting
// from the lane-major state x0 (warm starts replicate a nominal X0 across
// lanes). It returns per-lane solutions and per-lane errors — sols[k] is nil
// exactly when errs[k] is non-nil — and a non-nil error only for structural
// misuse (wrong lengths, bad options) or context cancellation.
func ShootAutonomousBatch(ctx context.Context, b *circuit.Batch, x0 []float64, opt BatchShootOptions) (sols []*Solution, errs []error, err error) {
	K, n := b.K, b.N
	if len(opt.GuessT) != K {
		return nil, nil, fmt.Errorf("pss: BatchShootOptions.GuessT has %d lanes, batch has %d", len(opt.GuessT), K)
	}
	for k, g := range opt.GuessT {
		if !(g > 0) || math.IsInf(g, 1) {
			return nil, nil, fmt.Errorf("pss: period guess %d is %g; it must be positive and finite", k, g)
		}
	}
	if len(x0) != K*n {
		return nil, nil, fmt.Errorf("pss: start state has length %d, want %d", len(x0), K*n)
	}
	if opt.StepsPerPeriod == 0 {
		opt.StepsPerPeriod = 512
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 30
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-7
	}
	if opt.SettleCycles == 0 {
		opt.SettleCycles = defaultSettleCycles
	}
	spp := opt.StepsPerPeriod
	defer diag.SpanFrom(ctx, "pss.shoot.batch").End()
	dm := diag.FromContext(ctx)
	dm.Add(diag.NewtonSolves, int64(K))

	tsc := transient.NewBatchScratch(b)
	sols = make([]*Solution, K)
	errs = make([]error, K)
	x := append([]float64(nil), x0...)
	T := append([]float64(nil), opt.GuessT...)
	h, t1 := make([]float64, K), make([]float64, K)
	active := make([]int, 0, K)
	for k := 0; k < K; k++ {
		active = append(active, k)
	}
	fail := func(k int, e error) { errs[k] = e }
	prune := func(lanes []int) []int {
		w := 0
		for _, k := range lanes {
			if errs[k] == nil {
				lanes[w] = k
				w++
			}
		}
		return lanes[:w]
	}

	// Per-lane phase levels, and per-lane workspaces for the border column ẋ(T).
	level := make([]float64, K)
	wss := make([]*circuit.Workspace, K)
	fT := linalg.NewVec(n)
	for _, k := range active {
		level[k] = phaseLevel(b.Systems[k])
		wss[k] = b.Systems[k].NewWorkspace()
		wss[k].SetMetrics(dm)
	}

	// Settle onto the limit cycles at the settle resolution (see settleSteps):
	// SettleCycles−1 free-running Trap cycles, then the search run, stepped
	// at the period the first cycles' recurrence estimates, that phaseStart
	// scans for the phase origin. Node 0 is recorded throughout, for the
	// period refined from its recurrence over the whole settle, and the full
	// state only in the search run.
	if opt.SettleCycles > 0 {
		sp := diag.SpanFrom(ctx, "pss.settle")
		sspp := settleSteps(spp)
		for _, k := range active {
			h[k] = T[k] / float64(sspp)
		}
		var t0 []float64
		ts1, v1 := make([][]float64, K), make([][]float64, K)
		if c := opt.SettleCycles - 1; c > 0 {
			res, rerr := tsc.Run(ctx, x, transient.BatchOptions{
				Options: transient.Options{Method: transient.Trap, Backend: opt.Backend},
				H:       h, T1: laneEnds(t1, nil, h, active, c*sspp),
				RecordWave: true, Active: active,
			})
			if rerr != nil {
				sp.End()
				return nil, nil, fmt.Errorf("pss: batched settle failed: %w", rerr)
			}
			t0 = make([]float64, K)
			for _, k := range active {
				if res.Err[k] != nil {
					fail(k, fmt.Errorf("pss: settle transient failed: %w", res.Err[k]))
					continue
				}
				copy(x[k*n:(k+1)*n], res.LaneX(k))
				ts1[k], v1[k] = settleTimes(res.T[k], h[k]), res.NodeV[k]
				t0[k] = ts1[k][len(ts1[k])-1]
				if Tref, err := estimatePeriodFromSeries(ts1[k], v1[k], opt.GuessT[k]); err == nil {
					h[k] = Tref / float64(sspp)
				}
			}
			active = prune(active)
		}
		res, rerr := tsc.Run(ctx, x, transient.BatchOptions{
			Options: transient.Options{Method: transient.Trap, Backend: opt.Backend},
			H:       h, T0: t0, T1: laneEnds(t1, t0, h, active, searchSteps(sspp)),
			RecordWave: true, RecordStates: true, Active: active,
		})
		sp.End()
		if rerr != nil {
			return nil, nil, fmt.Errorf("pss: batched settle failed: %w", rerr)
		}
		for _, k := range active {
			if res.Err[k] != nil {
				fail(k, fmt.Errorf("pss: settle transient failed: %w", res.Err[k]))
				continue
			}
			T[k] = settlePeriod(ts1[k], v1[k], settleTimes(res.T[k], h[k]), res.NodeV[k], opt.GuessT[k])
			if perr := phaseStart(x[k*n:(k+1)*n], res.States[k], level[k], opt.Tol); perr != nil {
				fail(k, perr)
			}
		}
		active = prune(active)
	}

	// Bordered Newton, per lane over batched monodromy transients:
	//   [ M − I   ẋ(T) ] [Δx]   [ −r ]
	//   [ e_0ᵀ      0  ] [ΔT] = [  0 ]
	//
	// Every Newton run records states: the run that *detects* a lane's
	// convergence integrates one full period from the converged (x, T) with
	// sensitivities, so its trajectory, monodromy and residual are the
	// Solution's grid data and no separate grid pass is needed.
	big := linalg.NewMat(n+1, n+1)
	rhs := linalg.NewVec(n + 1)
	dz := linalg.NewVec(n + 1)
	r := linalg.NewVec(n)
	var lu linalg.LU
	lastRes := make([]float64, K)

	for iter := 0; iter < opt.MaxIter && len(active) > 0; iter++ {
		for _, k := range active {
			h[k] = T[k] / float64(spp)
		}
		run, rerr := tsc.Run(ctx, x, transient.BatchOptions{
			Options: transient.Options{Method: opt.Method, Sensitivity: true, Backend: opt.Backend},
			H:       h, T1: laneEnds(t1, nil, h, active, spp),
			RecordStates: true, Active: active,
		})
		if rerr != nil {
			return nil, nil, fmt.Errorf("pss: batched shooting transient failed: %w", rerr)
		}
		for _, k := range active {
			if run.Err[k] != nil {
				fail(k, fmt.Errorf("pss: shooting transient failed: %w", run.Err[k]))
				continue
			}
			base := k * n
			xk := linalg.Vec(x[base : base+n])
			xT := run.LaneX(k)
			r.Sub(xT, xk)
			lastRes[k] = r.NormInf()
			if lastRes[k] <= opt.Tol {
				if len(run.States[k]) != spp+1 {
					fail(k, fmt.Errorf("pss: expected %d grid points, got %d", spp+1, len(run.States[k])))
					continue
				}
				if serr := checkOrbitSwing(run.States[k], opt.Tol); serr != nil {
					fail(k, serr)
					continue
				}
				grid := make([]float64, spp+1)
				for i := range grid {
					grid[i] = T[k] * float64(i) / float64(spp)
				}
				mult, merr := linalg.Eigenvalues(run.Sens[k])
				if merr != nil {
					mult = nil // uncomputable multipliers are advisory; don't fail the PSS
				}
				if terr := checkTrivialMultiplier(mult, spp); terr != nil {
					fail(k, terr)
					continue
				}
				sols[k] = &Solution{
					T0: T[k], F0: 1 / T[k],
					X0:          append(linalg.Vec(nil), xk...),
					Grid:        grid,
					States:      run.States[k],
					Monodromy:   run.Sens[k],
					Multipliers: mult,
					Residual:    lastRes[k],
					Iterations:  iter,
				}
				fail(k, errConvergedSentinel) // removed from active below; cleared before return
				continue
			}
			dm.Inc(diag.NewtonIterations)
			m := run.Sens[k]
			big.Zero()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					big.Set(i, j, m.At(i, j))
				}
				big.Addf(i, i, -1)
			}
			wss[k].XDotInto(fT, xT, T[k])
			for i := 0; i < n; i++ {
				big.Set(i, n, fT[i])
			}
			big.Set(n, 0, 1)
			for i := 0; i < n; i++ {
				rhs[i] = -r[i]
			}
			rhs[n] = level[k] - xk[0]
			ferr := lu.FactorizeInto(big)
			dm.Inc(diag.LUFactorizations)
			if lu.ReusedBuffers() {
				dm.Inc(diag.LUFactorizationsReused)
			}
			if ferr != nil {
				fail(k, fmt.Errorf("pss: singular bordered Jacobian: %w", ferr))
				continue
			}
			lu.SolveInto(dz, rhs)
			dm.Inc(diag.LUSolves)
			if dT := dz[n]; math.Abs(dT) > 0.2*T[k] {
				dz.Scale(0.2 * T[k] / math.Abs(dT))
			}
			for i := 0; i < n; i++ {
				xk[i] += dz[i]
			}
			T[k] += dz[n]
			if T[k] <= 0 {
				fail(k, errors.New("pss: period iterate became non-positive"))
			}
		}
		active = prune(active)
	}
	for _, k := range active {
		fail(k, fmt.Errorf("pss: shooting did not converge (residual %.3g V after %d iterations): %w", lastRes[k], opt.MaxIter, solver.ErrNoConvergence))
	}
	for k := range errs {
		if errors.Is(errs[k], errConvergedSentinel) {
			errs[k] = nil
		}
	}
	return sols, errs, nil
}

// settleTimes overwrites a settle run's recorded time axis — its lane's
// grid t0 + k·h — with t0, t0 + h, (t0 + h) + h, … accumulated step by
// step, and returns it. The two differ by rounding only; the settle's
// period estimates are fitted on the accumulated axis, the one the pinned
// work counts of the batched Monte-Carlo benchmark were measured on, where
// the grid's roundings move a corner's Newton and LU counts by one or two.
func settleTimes(ts []float64, h float64) []float64 {
	for i := 1; i < len(ts); i++ {
		ts[i] = ts[i-1] + h
	}
	return ts
}

// laneEnds sets dst[k], for the given lanes, to the time lane k reaches
// after steps steps of h[k] from t0[k] (0 when t0 is nil), and returns dst.
func laneEnds(dst, t0, h []float64, lanes []int, steps int) []float64 {
	for _, k := range lanes {
		dst[k] = float64(steps) * h[k]
		if t0 != nil {
			dst[k] += t0[k]
		}
	}
	return dst
}

// errConvergedSentinel temporarily marks converged lanes inside the shooting
// loop's shared error array so prune drops them from the active set; it is
// cleared before ShootAutonomousBatch returns and never escapes.
var errConvergedSentinel = errors.New("pss: lane converged")
