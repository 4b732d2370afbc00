// Package solver implements the damped Newton–Raphson iteration and the
// gmin / source-stepping continuation of the DC operating point, and the
// dense/sparse matrix type (matrix.go) that it and the transient
// correctors factor and solve on.
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

// The Newton iteration's settings.
const (
	maxIter = 60   // iterations per solve
	absTol  = 1e-9 // residual ∞-norm tolerance
	relTol  = 1e-9 // step-size relative tolerance
	maxStep = 2.0  // per-iteration ∞-norm clamp on Δx
)

// Func evaluates the residual f(x) under continuation scaling — gminScale
// multiplies the stabilizing shunt conductances, srcScale every independent
// source — and, when jv is non-nil, the Jacobian df/dx into jv: one value
// per entry of the pattern the solve runs on. It overwrites f and jv.
type Func func(x, f linalg.Vec, jv []float64, gminScale, srcScale float64)

// stats reports what a Newton solve did.
type stats struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// ErrNoConvergence is returned when the iteration stalls.
var ErrNoConvergence = errors.New("solver: Newton iteration did not converge")

// newton holds every buffer a DC solve needs: the iterate, residual,
// line-search trials and step, the Jacobian values on the pattern, and the
// Newton matrix on the backend with its factorization. Every stage of the
// continuation ladder runs through it.
type newton struct {
	fn                   Func
	x, f, xTry, fTry, dx linalg.Vec
	jv                   []float64
	a                    Matrix
	pin                  Pins
}

// newNewton returns a solve of fn on pattern pat and backend be (dense or
// sparse).
func newNewton(fn Func, pat *sparse.Pattern, be linalg.Backend) *newton {
	n := pat.N
	nw := &newton{fn: fn, x: linalg.NewVec(n), f: linalg.NewVec(n), xTry: linalg.NewVec(n),
		fTry: linalg.NewVec(n), dx: linalg.NewVec(n), jv: make([]float64, pat.NNZ())}
	nw.pin.Add(5*n + pat.NNZ())
	nw.a = NewMatrices(be, n, pat, 1, &nw.pin)[0]
	return nw
}

// solve runs damped Newton–Raphson on fn at the given scales from x0 and
// returns the iterate, which aliases nw's buffer.
//
// The line search evaluates trial points residual-only; once a step is
// accepted, f and J are re-evaluated together at the accepted point, so
// the next factorization always sees the Jacobian of the accepted state —
// never that of a rejected backtracking trial.
func (nw *newton) solve(ctx context.Context, x0 linalg.Vec, g, s float64) (linalg.Vec, stats, error) {
	m := diag.FromContext(ctx)
	m.Inc(diag.NewtonSolves)
	defer nw.pin.Report(m)
	x, f := nw.x, nw.f
	xTry, fTry, dx := nw.xTry, nw.fTry, nw.dx
	copy(x, x0) // x0 may alias nw.x (continuation chains); copy is then a no-op

	nw.fn(x, f, nw.jv, g, s)
	res := f.NormInf()
	st := stats{Residual: res}
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
	for iter := 0; iter < maxIter; iter++ {
		if res <= absTol {
			st.Converged = true
			st.Iterations = iter
			st.Residual = res
			return x, st, nil
		}
		// The matrix takes J's values unchanged (a copy, not 0 + 1·J, which
		// would turn −0 into +0).
		nw.a.Set(nw.jv)
		if err := nw.a.Factor(m); err != nil {
			return x, st, fmt.Errorf("solver: singular Jacobian at iteration %d: %w", iter, err)
		}
		nw.a.Solve(dx, f)
		m.Inc(diag.LUSolves)
		dx.Scale(-1)
		if mx := dx.NormInf(); mx > maxStep {
			dx.Scale(maxStep / mx)
		}
		// Line search: halve the step until the residual decreases. Trials
		// are residual-only — a rejected candidate costs an f evaluation, not
		// a Jacobian assembly.
		lambda := 1.0
		accepted := false
		for ls := 0; ls < 12; ls++ {
			for i := range xTry {
				xTry[i] = x[i] + lambda*dx[i]
			}
			nw.fn(xTry, fTry, nil, g, s)
			newRes := fTry.NormInf()
			if newRes < res || newRes <= absTol || math.IsNaN(res) {
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
		if lambda*dx.NormInf() <= relTol*(1+x.NormInf()) && res <= 100*absTol {
			st.Converged = true
			st.Residual = res
			return x, st, nil
		}
		if res > absTol {
			// Refresh f and J together at the ACCEPTED point, so the next
			// factorization never sees the Jacobian of a rejected trial.
			nw.fn(x, f, nw.jv, g, s)
		}
	}
	st.Residual = res
	if res <= 10*absTol { // close enough for continuation purposes
		st.Converged = true
		return x, st, nil
	}
	return x, st, fmt.Errorf("%w (residual %.3g after %d iterations)", ErrNoConvergence, res, st.Iterations)
}

// dcSolve finds a DC solution of fn on pattern pat and backend be from x0
// with the standard SPICE escalation ladder — plain Newton, then gmin
// stepping with geometrically relaxing shunts, then source ramping — every
// stage through one solve's buffers, so a sparse solve reuses one symbolic
// factorization across the whole chain. The result aliases those buffers,
// which die with the call.
func dcSolve(ctx context.Context, fn Func, pat *sparse.Pattern, be linalg.Backend, x0 linalg.Vec) (linalg.Vec, error) {
	nw := newNewton(fn, pat, be)
	step := func(g, s float64, seed linalg.Vec) (linalg.Vec, error) {
		x, _, err := nw.solve(ctx, seed, g, s)
		return x, err
	}
	if x, err := step(1, 1, x0); err == nil {
		return x, nil
	}
	// Gmin stepping: start with heavy shunts and relax geometrically.
	x := x0
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
	x = x0
	for _, s := range []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
		var err error
		x, err = step(1, s, x)
		if err != nil {
			return nil, fmt.Errorf("solver: DC continuation failed at source scale %g: %w", s, err)
		}
	}
	return x, nil
}
