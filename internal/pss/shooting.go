// Package pss computes periodic steady states of circuits. For autonomous
// (self-sustaining) oscillators the period is itself an unknown, so the
// shooting method solves the bordered system
//
//	x(T; x0) − x0 = 0      (n equations)
//	x0[0] − L = 0          (phase condition)
//
// for (x0, T) by Newton iteration, where L is the phase level (mid-rail; see
// phase.go) and the start sits on node 0's rising edge through it. The
// monodromy matrix ∂x(T)/∂x0 comes from the transient integrator's
// sensitivity propagation; its Floquet multipliers certify orbital stability
// (one multiplier pinned at 1, the rest inside the unit circle) and feed
// directly into the PPV extraction of package ppv.
//
// A frequency-domain (harmonic balance) refinement of the same orbit is
// provided in hb.go; the PPV-HB extraction path builds on it.
package pss

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/fourier"
	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/transient"
)

// Options tunes the shooting solver.
type Options struct {
	GuessT         float64 // initial period guess (required; see ringosc.EstimatedF0)
	StepsPerPeriod int     // fixed integration steps per period (default 512)
	MaxIter        int     // Newton iterations (default 30)
	Tol            float64 // ∞-norm tolerance on the periodicity residual, volts (default 1e-7)
	Method         transient.Method
	// SettleCycles integrates this many free-running cycles of GuessT
	// before shooting starts, to land near the limit cycle (default 7), at
	// min(StepsPerPeriod, 64) steps per period. The last of them is searched
	// for node 0's rising crossing of the phase level, where shooting starts.
	// A negative value skips the settle and the search: x0 must then already
	// sit near that crossing, as a previous Solution's X0 does.
	SettleCycles int
	// Backend selects the linear-algebra backend for the inner transient
	// integrations (corrector + monodromy propagation), where a shooting
	// solve spends essentially all of its linear-algebra time. The zero
	// value (Auto) picks sparse for large circuits. The bordered Newton
	// update itself always runs dense: its Jacobian embeds the monodromy
	// matrix M − I, which is structurally dense for any connected circuit.
	Backend linalg.Backend
}

// Solution is a converged periodic steady state on a uniform grid.
type Solution struct {
	T0 float64 // period, s
	F0 float64 // 1/T0
	X0 linalg.Vec
	// Grid holds K+1 uniform times spanning [0, T0]; States[k] = x(Grid[k]).
	// States[K] ≈ States[0].
	Grid   []float64
	States []linalg.Vec
	// Monodromy is ∂x(T)/∂x(0) around the orbit.
	Monodromy *linalg.Mat
	// Multipliers are the Floquet (characteristic) multipliers, sorted by
	// decreasing magnitude; Multipliers[0] ≈ 1 for an autonomous oscillator.
	Multipliers []complex128
	// Residual is the final periodicity error.
	Residual float64
	// Iterations is the Newton count.
	Iterations int
}

// K returns the number of grid intervals.
func (s *Solution) K() int { return len(s.Grid) - 1 }

// NodeSeries returns the Fourier series (in normalized time t/T0) of free
// node k's PSS waveform, keeping maxHarm harmonics.
func (s *Solution) NodeSeries(k, maxHarm int) *fourier.Series {
	kk := s.K()
	samples := make([]float64, kk)
	for i := 0; i < kk; i++ {
		samples[i] = s.States[i][k]
	}
	return fourier.NewSeriesFromSamples(samples, maxHarm)
}

// StateAt interpolates the PSS state at an arbitrary time (t mod T0) from
// the grid (linear interpolation; use NodeSeries for spectral accuracy).
func (s *Solution) StateAt(t float64) linalg.Vec {
	tt := math.Mod(t, s.T0)
	if tt < 0 {
		tt += s.T0
	}
	k := s.K()
	pos := tt / s.T0 * float64(k)
	i := int(pos)
	if i >= k {
		i = k - 1
	}
	f := pos - float64(i)
	out := linalg.NewVec(len(s.X0))
	for j := range out {
		out[j] = s.States[i][j] + f*(s.States[i+1][j]-s.States[i][j])
	}
	return out
}

// ShootAutonomous finds the limit cycle of an autonomous circuit starting
// from the (non-equilibrium) state x0.
//
// ShootAutonomous is safe to call concurrently on one shared System: all
// mutable evaluation state lives in per-call workspaces.
func ShootAutonomous(sys *circuit.System, x0 linalg.Vec, opt Options) (*Solution, error) {
	return ShootAutonomousCtx(context.Background(), sys, x0, opt)
}

// ShootAutonomousCtx is ShootAutonomous with cancellation: the settle and
// shooting transients check ctx between integration steps.
func ShootAutonomousCtx(ctx context.Context, sys *circuit.System, x0 linalg.Vec, opt Options) (*Solution, error) {
	if opt.GuessT <= 0 {
		return nil, errors.New("pss: Options.GuessT must be a positive period guess")
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
	n := sys.N
	defer diag.SpanFrom(ctx, "pss.shoot").End()
	dm := diag.FromContext(ctx)
	dm.Inc(diag.NewtonSolves)

	// One transient scratch serves the settle run, every shooting iteration,
	// and the final grid pass — the monodromy propagation inside each run is
	// where a cold shooting solve used to spend most of its allocations.
	tsc := transient.NewScratch(sys)

	// Settle onto the limit cycle, refine the period guess from the
	// trajectory's recurrence, and start at the phase origin.
	T := opt.GuessT
	x := x0.Clone()
	level := phaseLevel(sys)
	if opt.SettleCycles > 0 {
		sp := diag.SpanFrom(ctx, "pss.settle")
		var err error
		T, err = settle(ctx, tsc, x, T, level, opt)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	ws := sys.NewWorkspace()
	ws.SetMetrics(dm)

	// Bordered Newton system, rebuilt in pinned buffers each iteration:
	//   [ M − I   ẋ(T) ] [Δx]   [ −r ]
	//   [ e_0ᵀ      0  ] [ΔT] = [  0 ]
	// Every entry written below is rewritten each iteration; the untouched
	// remainder of the border row stays zero from allocation.
	big := linalg.NewMat(n+1, n+1)
	rhs := linalg.NewVec(n + 1)
	dz := linalg.NewVec(n + 1)
	r := linalg.NewVec(n)
	fT := linalg.NewVec(n)
	var lu linalg.LU

	var lastRes float64
	for iter := 0; iter < opt.MaxIter; iter++ {
		run, err := tsc.Run(ctx, x, 0, T, transient.Options{
			Method:      opt.Method,
			Step:        T / float64(opt.StepsPerPeriod),
			Sensitivity: true,
			Backend:     opt.Backend,
		})
		if err != nil {
			return nil, fmt.Errorf("pss: shooting transient failed: %w", err)
		}
		xT := run.Final()
		mono := run.Sens
		r.Sub(xT, x)
		lastRes = r.NormInf()
		if lastRes <= opt.Tol {
			return buildSolution(ctx, tsc, sys, x, T, true, opt, iter)
		}
		dm.Inc(diag.NewtonIterations)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				big.Set(i, j, mono.At(i, j))
			}
			big.Addf(i, i, -1)
		}
		ws.XDotInto(fT, xT, T)
		for i := 0; i < n; i++ {
			big.Set(i, n, fT[i])
		}
		big.Set(n, 0, 1)
		for i := 0; i < n; i++ {
			rhs[i] = -r[i]
		}
		rhs[n] = level - x[0]
		err = lu.FactorizeInto(big)
		dm.Inc(diag.LUFactorizations)
		if lu.ReusedBuffers() {
			dm.Inc(diag.LUFactorizationsReused)
		}
		if err != nil {
			return nil, fmt.Errorf("pss: singular bordered Jacobian: %w", err)
		}
		lu.SolveInto(dz, rhs)
		dm.Inc(diag.LUSolves)
		// Damping: limit the period update to ±20% per iteration.
		if dT := dz[n]; math.Abs(dT) > 0.2*T {
			dz.Scale(0.2 * T / math.Abs(dT))
		}
		for i := 0; i < n; i++ {
			x[i] += dz[i]
		}
		T += dz[n]
		if T <= 0 {
			return nil, errors.New("pss: period iterate became non-positive")
		}
	}
	return nil, fmt.Errorf("pss: shooting did not converge (residual %.3g V after %d iterations): %w", lastRes, opt.MaxIter, solver.ErrNoConvergence)
}

// ShootDriven finds the periodic steady state of a circuit driven at a known
// period T (no phase condition; the source defines time zero).
//
// Like ShootAutonomous, it is safe to call concurrently on a shared System.
func ShootDriven(sys *circuit.System, x0 linalg.Vec, T float64, opt Options) (*Solution, error) {
	return ShootDrivenCtx(context.Background(), sys, x0, T, opt)
}

// ShootDrivenCtx is ShootDriven with cancellation.
func ShootDrivenCtx(ctx context.Context, sys *circuit.System, x0 linalg.Vec, T float64, opt Options) (*Solution, error) {
	if opt.StepsPerPeriod == 0 {
		opt.StepsPerPeriod = 512
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 30
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-7
	}
	n := sys.N
	defer diag.SpanFrom(ctx, "pss.shoot").End()
	dm := diag.FromContext(ctx)
	dm.Inc(diag.NewtonSolves)
	tsc := transient.NewScratch(sys)
	x := x0.Clone()
	r := linalg.NewVec(n)
	dx := linalg.NewVec(n)
	jac := linalg.NewMat(n, n)
	var lu linalg.LU
	var lastRes float64
	for iter := 0; iter < opt.MaxIter; iter++ {
		run, err := tsc.Run(ctx, x, 0, T, transient.Options{
			Method:      opt.Method,
			Step:        T / float64(opt.StepsPerPeriod),
			Sensitivity: true,
			Backend:     opt.Backend,
		})
		if err != nil {
			return nil, fmt.Errorf("pss: driven shooting transient failed: %w", err)
		}
		xT := run.Final()
		r.Sub(xT, x)
		lastRes = r.NormInf()
		if lastRes <= opt.Tol {
			return buildSolution(ctx, tsc, sys, x, T, false, opt, iter)
		}
		dm.Inc(diag.NewtonIterations)
		jac.CopyFrom(run.Sens)
		for i := 0; i < n; i++ {
			jac.Addf(i, i, -1)
		}
		err = lu.FactorizeInto(jac)
		dm.Inc(diag.LUFactorizations)
		if lu.ReusedBuffers() {
			dm.Inc(diag.LUFactorizationsReused)
		}
		if err != nil {
			return nil, fmt.Errorf("pss: singular shooting Jacobian (is the circuit autonomous?): %w", err)
		}
		lu.SolveInto(dx, r)
		dm.Inc(diag.LUSolves)
		for i := 0; i < n; i++ {
			x[i] -= dx[i]
		}
	}
	return nil, fmt.Errorf("pss: driven shooting did not converge (residual %.3g V): %w", lastRes, solver.ErrNoConvergence)
}

// buildSolution integrates one final period on the converged orbit, records
// the uniform grid, and computes Floquet multipliers; an autonomous orbit
// must move and keep a multiplier near 1. The grid run goes through the
// caller's transient scratch; the returned Solution retains only per-run
// storage (run.X's arena and run.Sens belong to that run alone).
func buildSolution(ctx context.Context, tsc *transient.Scratch, sys *circuit.System, x0 linalg.Vec, T float64, autonomous bool, opt Options, iters int) (*Solution, error) {
	defer diag.SpanFrom(ctx, "pss.grid").End()
	k := opt.StepsPerPeriod
	run, err := tsc.Run(ctx, x0, 0, T, transient.Options{
		Method:      opt.Method,
		Step:        T / float64(k),
		Sensitivity: true,
		Backend:     opt.Backend,
	})
	if err != nil {
		return nil, err
	}
	if len(run.X) != k+1 {
		return nil, fmt.Errorf("pss: expected %d grid points, got %d", k+1, len(run.X))
	}
	if autonomous {
		if err := checkOrbitSwing(run.X, opt.Tol); err != nil {
			return nil, err
		}
	}
	grid := make([]float64, k+1)
	for i := range grid {
		grid[i] = T * float64(i) / float64(k)
	}
	mult, err := linalg.Eigenvalues(run.Sens)
	if err != nil {
		mult = nil // uncomputable multipliers are advisory; don't fail the PSS
	}
	if autonomous {
		if err := checkTrivialMultiplier(mult, k); err != nil {
			return nil, err
		}
	}
	resid := linalg.NewVec(sys.N)
	resid.Sub(run.Final(), x0)
	return &Solution{
		T0: T, F0: 1 / T, X0: x0.Clone(),
		Grid: grid, States: run.X,
		Monodromy:   run.Sens,
		Multipliers: mult,
		Residual:    resid.NormInf(),
		Iterations:  iters,
	}, nil
}

// fixedPointSwing is the multiple of the periodicity tolerance a node must
// swing both ways for a trajectory to count as an oscillation.
const fixedPointSwing = 100

// ErrFixedPoint reports an autonomous shooting solve on a circuit that does
// not oscillate: its settle, or the orbit it converged, sits at or relaxes
// toward an equilibrium instead of a limit cycle. It wraps
// solver.ErrNoConvergence.
var ErrFixedPoint = fmt.Errorf("pss: converged orbit is a fixed point: %w", solver.ErrNoConvergence)

// checkOrbitSwing rejects a trajectory that does not oscillate: one on
// which no node both rises and falls by more than fixedPointSwing·tol. An
// equilibrium satisfies x(T) = x(0) for every T, so a shooting solve that
// settles onto one passes the periodicity test with whatever period it was
// handed and would report a frequency it never measured; and a settle still
// relaxing toward one moves each node one way only, however far, so a
// short settle classifies as a long one does. On a converged orbit each
// node rises and falls by its peak-to-peak swing. Shared by the scalar and
// batched solves and the phase search; it allocates nothing when the
// trajectory passes.
func checkOrbitSwing(states []linalg.Vec, tol float64) error {
	swing := 0.0
	for j := range states[0] {
		lo, hi := states[0][j], states[0][j]
		rise, fall := 0.0, 0.0
		for _, x := range states[1:] {
			v := x[j]
			rise, fall = math.Max(rise, v-lo), math.Max(fall, hi-v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		swing = math.Max(swing, math.Min(rise, fall))
	}
	if limit := fixedPointSwing * tol; !(swing > limit) {
		return fmt.Errorf("%w (largest swing a node makes both ways %.3g V, limit %.3g V)", ErrFixedPoint, swing, limit)
	}
	return nil
}

// settle runs the scalar solve's settle from x (overwritten with the start
// state) and returns the refined period: SettleCycles−1 free-running cycles at
// the settle resolution, then the recorded search run, stepped at the period
// the first cycles' recurrence estimates, that phaseStart scans for the phase
// origin. The period refines from node 0's recurrence over the whole settle.
func settle(ctx context.Context, tsc *transient.Scratch, x linalg.Vec, T, level float64, opt Options) (float64, error) {
	sspp := settleSteps(opt.StepsPerPeriod)
	guess, h := T, T/float64(sspp)
	var ts, v []float64
	if c := opt.SettleCycles - 1; c > 0 {
		res, err := tsc.Run(ctx, x, 0, float64(c)*T, transient.Options{
			Method: transient.Trap, Step: h, Backend: opt.Backend,
		})
		if err != nil {
			return 0, fmt.Errorf("pss: settle transient failed: %w", err)
		}
		x.CopyFrom(res.Final())
		ts, v = res.T, res.Node(0)
		if Tref, err := estimatePeriodFromSeries(ts, v, guess); err == nil {
			h = Tref / float64(sspp)
		}
	}
	t := 0.0
	if len(ts) > 0 {
		t = ts[len(ts)-1]
	}
	res, err := tsc.Run(ctx, x, t, t+float64(searchSteps(sspp))*h, transient.Options{
		Method: transient.Trap, Step: h, Backend: opt.Backend,
	})
	if err != nil {
		return 0, fmt.Errorf("pss: settle transient failed: %w", err)
	}
	return settlePeriod(ts, v, res.T, res.Node(0), guess), phaseStart(x, res.X, level, opt.Tol)
}

// settlePeriod refines the period guess from node 0's recurrence over a whole
// settle: the first cycles' series (ts1, v1; empty when there were none)
// followed by the search run's, whose first point repeats their last.
func settlePeriod(ts1, v1, ts2, v2 []float64, guess float64) float64 {
	if len(ts1) > 0 {
		ts2, v2 = ts2[1:], v2[1:]
	}
	ts := append(ts1[:len(ts1):len(ts1)], ts2...)
	v := append(v1[:len(v1):len(v1)], v2...)
	if T, err := estimatePeriodFromSeries(ts, v, guess); err == nil {
		return T
	}
	return guess
}

// estimatePeriodFromSeries refines a period guess by measuring the spacing of
// rising crossings of node 0 (samples v at times ts) through its midpoint over
// the trailing half of a settle run. The scalar settle reads the series from
// its transient.Result, the batched one from its per-lane node recording.
func estimatePeriodFromSeries(ts, v []float64, guess float64) (float64, error) {
	if len(v) == 0 || len(ts) != len(v) {
		return 0, errors.New("pss: no recurrence found")
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	mid := (lo + hi) / 2
	var crossings []float64
	start := ts[len(ts)-1] / 2
	for i := 1; i < len(v); i++ {
		if ts[i] < start {
			continue
		}
		if v[i-1] < mid && v[i] >= mid {
			f := (mid - v[i-1]) / (v[i] - v[i-1])
			crossings = append(crossings, ts[i-1]+f*(ts[i]-ts[i-1]))
		}
	}
	if len(crossings) < 2 {
		return 0, errors.New("pss: no recurrence found")
	}
	T := (crossings[len(crossings)-1] - crossings[0]) / float64(len(crossings)-1)
	if T < guess/4 || T > guess*4 {
		return 0, fmt.Errorf("pss: recurrence period %.3g far from guess %.3g", T, guess)
	}
	return T, nil
}

// StabilityReport classifies an autonomous orbit from its Floquet
// multipliers: the multiplier nearest 1 is taken as the trivial one, and the
// largest remaining magnitude is returned. The orbit is orbitally stable iff
// that magnitude is < 1 and the trivial multiplier lies within the
// discretization's bound of 1 (an orbit without one is not autonomous).
func (s *Solution) StabilityReport() (trivial complex128, largestOther float64, stable bool) {
	if len(s.Multipliers) == 0 {
		return 0, math.NaN(), false
	}
	best, bd := nearestToOne(s.Multipliers)
	trivial = s.Multipliers[best]
	largestOther = 0
	for i, m := range s.Multipliers {
		if i == best {
			continue
		}
		if a := cmplx.Abs(m); a > largestOther {
			largestOther = a
		}
	}
	return trivial, largestOther, largestOther < 1 && bd <= trivialMultiplierBound(s.K())
}
