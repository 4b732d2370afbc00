// Package solver implements the damped Newton–Raphson iteration and the
// gmin / source-stepping continuation schemes used for DC operating points
// and for the implicit corrector inside transient integration.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// Options tunes the Newton iteration. Zero-valued fields are defaulted
// *independently* (see DefaultOptions for the values): callers may set just
// the fields they care about without losing the rest. NoDamping is the one
// boolean, oriented so the zero value selects the safe default (damping on).
type Options struct {
	MaxIter   int     // maximum iterations (0 → 60)
	AbsTol    float64 // residual ∞-norm tolerance (0 → 1e-9)
	RelTol    float64 // step-size relative tolerance (0 → 1e-9)
	NoDamping bool    // disable line-search damping (default: damped)
	MaxStep   float64 // per-iteration ∞-norm clamp on Δx (0 → 2.0; negative → unlimited)
}

// DefaultOptions returns the standard solver settings — what a zero Options
// resolves to.
func DefaultOptions() Options {
	return Options{MaxIter: 60, AbsTol: 1e-9, RelTol: 1e-9, MaxStep: 2.0}
}

// withDefaults resolves zero fields to their defaults, each independently.
// (Historically a zero MaxIter replaced the *entire* Options with
// DefaultOptions(), silently discarding caller-set tolerances and clamps —
// DCSolve callers tuning only AbsTol were bitten by exactly that.)
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxIter == 0 {
		o.MaxIter = d.MaxIter
	}
	if o.AbsTol == 0 {
		o.AbsTol = d.AbsTol
	}
	if o.RelTol == 0 {
		o.RelTol = d.RelTol
	}
	if o.MaxStep == 0 {
		o.MaxStep = d.MaxStep
	}
	return o
}

// Func evaluates residual f(x) and, when j is non-nil, the Jacobian df/dx.
type Func func(x linalg.Vec, f linalg.Vec, j *linalg.Mat)

// SparseFunc evaluates residual f(x) and, when sj is non-nil, stamps the
// Jacobian df/dx into sj's value array (sj lives on the pattern the solve
// was provisioned with). The sparse analogue of Func.
type SparseFunc func(x linalg.Vec, f linalg.Vec, sj *sparse.CSC)

// Stats reports what a Newton solve did.
type Stats struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// ErrNoConvergence is returned when the iteration stalls.
var ErrNoConvergence = errors.New("solver: Newton iteration did not converge")

// Scratch holds every buffer a Newton solve needs — iterate, residual,
// Jacobian, line-search trials, step, and a pinned LU factorization — so a
// warm solve allocates nothing. One Scratch serves one goroutine; give each
// worker its own (they are cheap, and NewScratch is the only allocation
// site). A nil *Scratch passed to SolveWith/DCSolveWith allocates a private
// one, which is exactly the old SolveCtx behavior.
//
// The dense (j/lu) and sparse (sj/slu) halves are provisioned independently:
// a scratch used only through the sparse entry points never allocates the
// n×n dense Jacobian, and vice versa.
type Scratch struct {
	x, f, xTry, fTry, dx linalg.Vec
	j                    *linalg.Mat
	lu                   linalg.LU
	sj                   *sparse.CSC
	slu                  sparse.LU
	dsys                 denseSys  // pre-placed adapters so solveCore's
	ssys                 sparseSys // interface value never heap-allocates
	pinned, reported     int64     // bytes pinned / bytes already counted on metrics
}

// NewScratch returns a Scratch sized for n unknowns (dense backend).
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.ensure(n)
	return s
}

// NewSparseScratch returns a Scratch provisioned for the sparse backend on
// the given pattern; the dense n×n Jacobian is never allocated.
func NewSparseScratch(pat *sparse.Pattern) *Scratch {
	s := &Scratch{}
	s.ensureSparse(pat)
	return s
}

// ensureVecs (re)sizes the backend-independent vector buffers.
func (s *Scratch) ensureVecs(n int) {
	if len(s.x) == n {
		return
	}
	s.x = linalg.NewVec(n)
	s.f = linalg.NewVec(n)
	s.xTry = linalg.NewVec(n)
	s.fTry = linalg.NewVec(n)
	s.dx = linalg.NewVec(n)
	s.pinned += int64(8 * 5 * n)
}

// ensure (re)sizes the dense-backend buffers for n unknowns; a warm
// same-size call is free.
func (s *Scratch) ensure(n int) {
	s.ensureVecs(n)
	if s.j != nil && s.j.Rows == n {
		return
	}
	s.j = linalg.NewMat(n, n)
	s.pinned += int64(8 * n * n)
}

// ensureSparse (re)binds the sparse-backend buffers to the pattern; a warm
// same-pattern call is free. Pattern identity is pointer identity — the
// circuit layer shares one *Pattern per topology.
func (s *Scratch) ensureSparse(pat *sparse.Pattern) {
	s.ensureVecs(pat.N)
	if s.sj != nil && s.sj.P == pat {
		return
	}
	s.sj = sparse.NewCSC(pat)
	s.pinned += int64(8 * pat.NNZ())
}

// countPinned reports not-yet-counted pinned bytes on m (once per scratch).
func (s *Scratch) countPinned(m *diag.Metrics) {
	if m == nil || s.pinned == s.reported {
		return
	}
	m.Add(diag.ScratchBytesPinned, s.pinned-s.reported)
	s.reported = s.pinned
}

// Solve runs damped Newton–Raphson from x0 and returns the solution.
func Solve(fn Func, x0 linalg.Vec, opt Options) (linalg.Vec, Stats, error) {
	return SolveCtx(context.Background(), fn, x0, opt)
}

// SolveCtx is Solve with diagnostics: when ctx carries a *diag.Metrics, the
// solve counts its iterations, line-search backtracks and LU work there.
func SolveCtx(ctx context.Context, fn Func, x0 linalg.Vec, opt Options) (linalg.Vec, Stats, error) {
	return SolveWith(ctx, fn, x0, opt, nil)
}

// SolveWith is SolveCtx running entirely inside sc: a warm scratch makes the
// steady-state solve allocation-free. The returned vector ALIASES sc's
// iterate buffer — it is valid until the next solve through the same
// scratch; clone it to retain. A nil sc allocates a private scratch (making
// the returned vector caller-owned, as SolveCtx always was).
//
// The line search evaluates trial points with a nil Jacobian (residual
// only); once a step is accepted, f and J are re-evaluated together at the
// accepted point, so the next factorization always sees the Jacobian of the
// accepted state — never that of a rejected backtracking trial.
func SolveWith(ctx context.Context, fn Func, x0 linalg.Vec, opt Options, sc *Scratch) (linalg.Vec, Stats, error) {
	if sc == nil {
		sc = NewScratch(len(x0))
	} else {
		sc.ensure(len(x0))
	}
	sc.dsys = denseSys{fn: fn, sc: sc}
	return solveCore(ctx, &sc.dsys, x0, opt, sc)
}

// SolveSparseWith is SolveWith on the sparse backend: the Jacobian is
// stamped into CSC storage on pat and the Newton correction is solved
// against a KLU-style factorization whose symbolic analysis is computed once
// per pattern and reused across every subsequent iteration and solve through
// the same scratch. Aliasing and ownership rules match SolveWith exactly
// (the returned vector aliases sc; nil sc allocates a private one).
func SolveSparseWith(ctx context.Context, fn SparseFunc, pat *sparse.Pattern, x0 linalg.Vec, opt Options, sc *Scratch) (linalg.Vec, Stats, error) {
	if sc == nil {
		sc = NewSparseScratch(pat)
	} else {
		sc.ensureSparse(pat)
	}
	sc.ssys = sparseSys{fn: fn, sc: sc}
	return solveCore(ctx, &sc.ssys, x0, opt, sc)
}

// newtonSys abstracts the backend-specific pieces of a Newton iteration —
// how the residual/Jacobian are evaluated and how the linear correction is
// factorized and solved — so solveCore runs the one damping/convergence
// state machine for both the dense and the sparse backend. Implementations
// live inside Scratch (dsys/ssys) so the interface value never allocates.
type newtonSys interface {
	evalF(x, f linalg.Vec)           // residual only (line-search trials)
	evalFJ(x, f linalg.Vec)          // residual + Jacobian into backend storage
	factorize(m *diag.Metrics) error // factorize the stamped Jacobian
	solve(dst, rhs linalg.Vec)       // dst = J⁻¹·rhs against the factorization
}

// denseSys adapts a Func plus the scratch's dense Jacobian/LU to newtonSys.
type denseSys struct {
	fn Func
	sc *Scratch
}

func (d *denseSys) evalF(x, f linalg.Vec)  { d.fn(x, f, nil) }
func (d *denseSys) evalFJ(x, f linalg.Vec) { d.fn(x, f, d.sc.j) }
func (d *denseSys) factorize(m *diag.Metrics) error {
	err := d.sc.lu.FactorizeInto(d.sc.j)
	m.Inc(diag.LUFactorizations)
	if d.sc.lu.ReusedBuffers() {
		m.Inc(diag.LUFactorizationsReused)
	} else {
		d.sc.pinned += int64(8 * len(d.sc.j.Data))
	}
	return err
}
func (d *denseSys) solve(dst, rhs linalg.Vec) { d.sc.lu.SolveInto(dst, rhs) }

// sparseSys adapts a SparseFunc plus the scratch's CSC Jacobian and
// KLU-style factorization to newtonSys.
type sparseSys struct {
	fn SparseFunc
	sc *Scratch
}

func (s *sparseSys) evalF(x, f linalg.Vec)  { s.fn(x, f, nil) }
func (s *sparseSys) evalFJ(x, f linalg.Vec) { s.fn(x, f, s.sc.sj) }
func (s *sparseSys) factorize(m *diag.Metrics) error {
	err := s.sc.slu.FactorizeInto(s.sc.sj)
	m.Inc(diag.LUFactorizations)
	if s.sc.slu.ReusedSymbolic() {
		m.Inc(diag.LUFactorizationsReused)
		m.Inc(diag.SparseRefactors)
	} else {
		m.Inc(diag.SparseFactorizations)
		m.Add(diag.SparseFillIns, int64(s.sc.slu.FillIn()))
		s.sc.pinned += int64(8 * (len(s.sc.sj.Val) + s.sc.slu.FillIn()))
	}
	return err
}
func (s *sparseSys) solve(dst, rhs linalg.Vec) { s.sc.slu.SolveInto(dst, rhs) }

// solveCore is the backend-independent damped Newton state machine. Its
// arithmetic is exactly the historical dense loop — the dense path through
// SolveWith is bit-identical to PR 5.
func solveCore(ctx context.Context, sys newtonSys, x0 linalg.Vec, opt Options, sc *Scratch) (linalg.Vec, Stats, error) {
	m := diag.FromContext(ctx)
	opt = opt.withDefaults()
	m.Inc(diag.NewtonSolves)
	defer sc.countPinned(m)
	x, f := sc.x, sc.f
	xTry, fTry, dx := sc.xTry, sc.fTry, sc.dx
	copy(x, x0) // x0 may alias sc.x (continuation chains); copy is then a no-op

	sys.evalFJ(x, f)
	res := f.NormInf()
	st := Stats{Residual: res}
	// NormInf cannot flag NaN (NaN loses every comparison, reading as 0 —
	// i.e. "converged"), so scan the entries: a non-finite initial residual
	// means the seed is outside the model's domain. Factorizing the matching
	// garbage Jacobian would surface as a baffling ErrSingular — or worse,
	// an all-NaN residual would silently pass the convergence test; fail
	// fast with the honest diagnosis instead.
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return x, st, fmt.Errorf("%w: initial residual is not finite (f[%d] = %g)", ErrNoConvergence, i, v)
		}
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		if res <= opt.AbsTol {
			st.Converged = true
			st.Iterations = iter
			st.Residual = res
			return x, st, nil
		}
		if err := sys.factorize(m); err != nil {
			return x, st, fmt.Errorf("solver: singular Jacobian at iteration %d: %w", iter, err)
		}
		sys.solve(dx, f)
		m.Inc(diag.LUSolves)
		dx.Scale(-1)
		if opt.MaxStep > 0 {
			if mx := dx.NormInf(); mx > opt.MaxStep {
				dx.Scale(opt.MaxStep / mx)
			}
		}
		// Line search: halve the step until the residual decreases (or accept
		// a full step when damping is off). Trials are residual-only — a
		// rejected candidate costs an f evaluation, not a Jacobian assembly.
		lambda := 1.0
		accepted := false
		for ls := 0; ls < 12; ls++ {
			for i := range xTry {
				xTry[i] = x[i] + lambda*dx[i]
			}
			sys.evalF(xTry, fTry)
			newRes := fTry.NormInf()
			if opt.NoDamping || newRes < res || newRes <= opt.AbsTol || math.IsNaN(res) {
				if math.IsNaN(newRes) || math.IsInf(newRes, 0) {
					lambda /= 2
					m.Inc(diag.NewtonBacktracks)
					continue
				}
				x.CopyFrom(xTry)
				f.CopyFrom(fTry)
				res = newRes
				accepted = true
				break
			}
			lambda /= 2
			m.Inc(diag.NewtonBacktracks)
		}
		if !accepted {
			// Residual would not decrease: accept the tiny step anyway; some
			// strongly nonlinear corners need to pass through a ridge.
			x.CopyFrom(xTry)
			f.CopyFrom(fTry)
			res = fTry.NormInf()
		}
		st.Iterations = iter + 1
		m.Inc(diag.NewtonIterations)
		// Step-based convergence: a vanishing Newton step with finite
		// residual indicates stagnation at machine precision.
		if lambda*dx.NormInf() <= opt.RelTol*(1+x.NormInf()) && res <= 100*opt.AbsTol {
			st.Converged = true
			st.Residual = res
			return x, st, nil
		}
		if res > opt.AbsTol {
			// Refresh f and J together at the ACCEPTED point. Historically the
			// next factorization used whatever Jacobian the last line-search
			// trial left behind — the Jacobian of a rejected candidate when
			// backtracking fired — which was both slower to converge and
			// subtly wrong.
			sys.evalFJ(x, f)
		}
	}
	st.Residual = res
	if res <= 10*opt.AbsTol { // close enough for continuation purposes
		st.Converged = true
		return x, st, nil
	}
	return x, st, fmt.Errorf("%w (residual %.3g after %d iterations)", ErrNoConvergence, res, st.Iterations)
}

// ScaledFunc evaluates residual/Jacobian under continuation scaling
// (gminScale multiplies the stabilizing shunt conductances, srcScale
// multiplies all independent sources).
type ScaledFunc func(x linalg.Vec, f linalg.Vec, j *linalg.Mat, gminScale, srcScale float64)

// DCSolve finds a DC solution of fn using plain Newton first, then gmin
// stepping, then source stepping — the standard SPICE escalation ladder.
// Partial Options are safe: zero fields are defaulted independently.
func DCSolve(fn ScaledFunc, x0 linalg.Vec, opt Options) (linalg.Vec, error) {
	return DCSolveCtx(context.Background(), fn, x0, opt)
}

// DCSolveCtx is DCSolve with cost diagnostics carried by ctx.
func DCSolveCtx(ctx context.Context, fn ScaledFunc, x0 linalg.Vec, opt Options) (linalg.Vec, error) {
	return DCSolveWith(ctx, fn, x0, opt, nil)
}

// DCSolveWith is DCSolveCtx with every Newton stage of the escalation ladder
// running through one reusable scratch. Like SolveWith, the returned vector
// aliases sc when a scratch is supplied; a nil sc allocates a private one.
func DCSolveWith(ctx context.Context, fn ScaledFunc, x0 linalg.Vec, opt Options, sc *Scratch) (linalg.Vec, error) {
	if sc == nil {
		sc = NewScratch(len(x0))
	}
	return dcLadder(x0, func(g, s float64, seed linalg.Vec) (linalg.Vec, error) {
		x, _, err := SolveWith(ctx, func(x linalg.Vec, f linalg.Vec, j *linalg.Mat) {
			fn(x, f, j, g, s)
		}, seed, opt, sc)
		return x, err
	})
}

// ScaledSparseFunc is ScaledFunc on the sparse backend.
type ScaledSparseFunc func(x linalg.Vec, f linalg.Vec, sj *sparse.CSC, gminScale, srcScale float64)

// DCSolveSparseWith is DCSolveWith on the sparse backend: the same SPICE
// escalation ladder (plain Newton → gmin stepping → source stepping), every
// stage stamping into CSC storage on pat and reusing one symbolic
// factorization across the whole continuation chain.
func DCSolveSparseWith(ctx context.Context, fn ScaledSparseFunc, pat *sparse.Pattern, x0 linalg.Vec, opt Options, sc *Scratch) (linalg.Vec, error) {
	if sc == nil {
		sc = NewSparseScratch(pat)
	}
	return dcLadder(x0, func(g, s float64, seed linalg.Vec) (linalg.Vec, error) {
		x, _, err := SolveSparseWith(ctx, func(x linalg.Vec, f linalg.Vec, sj *sparse.CSC) {
			fn(x, f, sj, g, s)
		}, pat, seed, opt, sc)
		return x, err
	})
}

// dcLadder runs the standard SPICE escalation sequence — plain Newton, then
// gmin stepping with geometrically relaxing shunts, then source ramping —
// through a backend-supplied single-stage solve.
func dcLadder(x0 linalg.Vec, step func(g, s float64, seed linalg.Vec) (linalg.Vec, error)) (linalg.Vec, error) {
	// x0 may alias the scratch iterate from a previous solve; the
	// continuation restarts below need the pristine seed after the scratch
	// has been overwritten.
	orig := x0.Clone()
	if x, err := step(1, 1, orig); err == nil {
		return x, nil
	}
	// Gmin stepping: start with heavy shunts and relax geometrically.
	x := orig
	ok := true
	for _, g := range []float64{1e9, 1e7, 1e5, 1e3, 1e2, 10, 1} {
		var err error
		x, err = step(g, 1, x)
		if err != nil {
			ok = false
			break
		}
	}
	if ok {
		return x, nil
	}
	// Source stepping: ramp sources from 0.
	x = orig
	for _, s := range []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
		var err error
		x, err = step(1, s, x)
		if err != nil {
			return nil, fmt.Errorf("solver: DC continuation failed at source scale %g: %w", s, err)
		}
	}
	return x, nil
}
