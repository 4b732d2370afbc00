package transient

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/solver"
)

// This file holds the Newton corrector: the pieces the scalar run and the
// batched lanes share — the θ predictor, the method-scaled capacitance
// cache, the residual's capacitive term over C's nonzeros, the clamped
// update, and the Newton policy (convergence test, refactor or chord) —
// and the scalar run's θ and BDF2 steps with their sensitivity
// propagation, written once over the backend's matrix type (matrix.go).
// The capacitance cache and the residual perform the floating-point
// operations of the n²-dense assembly they replaced (kept as the test
// oracle), in the same order, less additions of exact zeros, so their
// results are bit for bit the same.

// errNoConverge is the corrector's iteration-cap failure.
var errNoConverge = fmt.Errorf("transient: Newton corrector did not converge: %w", solver.ErrNoConvergence)

// errNonFinite fails an iteration whose update or iterate is NaN or ±Inf,
// which a max-norm test would otherwise wave through as converged.
var errNonFinite = fmt.Errorf("transient: non-finite Newton iterate: %w", solver.ErrNoConvergence)

// updateTol is the corrector's update tolerance in volts: the run's
// NewtonTol, capped at 1e-6 V.
func updateTol(newtonTol float64) float64 {
	if newtonTol > 1e-6 {
		return 1e-6
	}
	return newtonTol
}

// predict writes the θ corrector's starting point for a step of size h
// into pred: the quadratic extrapolant through the last three accepted
// points — x, xp one step of h1 before it, and xpp a further h2 back — in
// variable-step divided differences,
//
//	p = x + h·x[t, t−h1] + h·(h+h1)·x[t, t−h1, t−h1−h2],
//
// the line through x and xp when h2 is 0 (one point of history), and x
// itself when h1 is 0 (none). The coefficients are taken in step ratios, so
// equal steps give exactly p = x + 2·(x−xp) − (xp−xpp).
func predict(pred, x, xp, xpp []float64, h, h1, h2 float64) {
	x = x[:len(pred)]
	switch {
	case h1 == 0:
		copy(pred, x)
	case h2 == 0:
		r := h / h1
		xp = xp[:len(pred)]
		for i, v := range x {
			pred[i] = v + r*(v-xp[i])
		}
	default:
		r, s := h/h1, h2/h1
		w := r * (r + 1) / (1 + s)
		ca, cb := r+w, w/s
		xp, xpp = xp[:len(pred)], xpp[:len(pred)]
		for i, v := range x {
			pred[i] = v + ca*(v-xp[i]) - cb*(xp[i]-xpp[i])
		}
	}
}

// corrector is the capacitance side of one Newton corrector: C's nonzeros,
// for the residual, and C's values scaled for the current step size, for
// the iteration matrix.
//
// The scaled values are laid out like the C values they come from (dense
// row-major n², or on the sparse pattern), so the iteration matrix
// assembles entrywise as scaled + w·J without a division. They are
// recomputed only when h changes — in a fixed-step run, once.
type corrector struct {
	cs     *sparse.CSC // C's nonzeros (read-only, shared; System.CNonzeros)
	d      []float64   // the state combination C multiplies; lent by the stepper, len n
	c      []float64   // C's values to scale (dense Data or pattern Val), read-only
	scaled []float64   // c/h, or 3·c/(2h) for Gear2; pinned, len(c)
	h      float64     // step size scaled holds; 0 before the first use
	gear   bool
}

// newCorrector binds a corrector to sys's C. c holds the C values the
// iteration matrix is laid out on, scaled is pinned storage of the same
// length, and d is an n-vector the stepper lends: the corrector only writes
// it while forming a residual, before the Newton solve that fills it.
func newCorrector(sys *circuit.System, c, scaled, d []float64, gear bool) corrector {
	return corrector{cs: sys.CNonzeros(), d: d, c: c, scaled: scaled, gear: gear}
}

// setGear switches the scaling between the θ-method's and Gear2's, as a
// Gear2 lane does after its BE first step.
func (co *corrector) setGear(gear bool) {
	if co.gear != gear {
		co.gear, co.h = gear, 0
	}
}

// scaledC returns C scaled for step h: c/h for the θ-method, 3·c/(2h) for
// Gear2.
func (co *corrector) scaledC(h float64) []float64 {
	if h != co.h {
		if co.gear {
			for i, c := range co.c {
				co.scaled[i] = 3 * c / (2 * h)
			}
		} else {
			for i, c := range co.c {
				co.scaled[i] = c / h
			}
		}
		co.h = h
	}
	return co.scaled
}

// addScaled sets dst to the iteration-matrix combination scaled + w·j
// entrywise — w = θ for the θ-method's iteration and sensitivity matrices,
// −(1−θ) for its propagator's right-hand matrix, 1 for Gear2 (an exact
// multiply). scaled is the matching layout from scaledC; dst may be j.
func addScaled(dst, scaled, j []float64, w float64) {
	scaled, j = scaled[:len(dst)], j[:len(dst)]
	for i, v := range j {
		dst[i] = scaled[i] + w*v
	}
}

// thetaResidual writes the θ-method residual
//
//	resid = C·(x1−x0)/h + θ·f1 + (1−θ)·f0
//
// with C·(x1−x0) taken over C's nonzeros (see System.CNonzeros): the same
// bits as the dense row product for finite iterates.
func (co *corrector) thetaResidual(resid, x1, x0, f1, f0 []float64, th, h float64) {
	d := co.d[:len(x1)]
	for j, v := range x1 {
		d[j] = v - x0[j]
	}
	co.cs.MulVecInto(resid, d)
	f1, f0 = f1[:len(resid)], f0[:len(resid)]
	for i, v := range resid {
		resid[i] = v/h + th*f1[i] + (1-th)*f0[i]
	}
}

// gearResidual writes the BDF2 residual
//
//	resid = C·(3·x1 − 4·x0 + xm1)/(2h) + f1
//
// over C's nonzeros like thetaResidual.
func (co *corrector) gearResidual(resid, x1, x0, xm1, f1 []float64, h float64) {
	d := co.d[:len(x1)]
	for j, v := range x1 {
		d[j] = 3*v - 4*x0[j] + xm1[j]
	}
	co.cs.MulVecInto(resid, d)
	f1 = f1[:len(resid)]
	for i, v := range resid {
		resid[i] = v/(2*h) + f1[i]
	}
}

// newtonUpdate applies one Newton correction to the iterate: it clamps dx
// so no node moves more than 2 V (the device models are exponential-free,
// but the tgate logistic can still overshoot) and sets x1 −= dx. It returns
// the clamped update's size |dx|∞ and the new iterate's |x1|∞, which the
// Newton policy judges convergence and chord iterations by. A non-finite
// update or iterate fails with errNonFinite: a NaN update entry, and an
// infinite one (which the clamp turns into ∞·0), leave a NaN in the
// iterate, and an infinite iterate shows in its norm. dx is left unclamped.
func newtonUpdate(x1, dx []float64) (dm, xm float64, err error) {
	m := 0.0
	for _, d := range dx {
		if a := math.Abs(d); a > m {
			m = a
		}
	}
	s := 1.0
	if m > 2 {
		s = 2 / m
	}
	x1 = x1[:len(dx)]
	for i, d := range dx {
		d *= s
		x := x1[i] - d
		x1[i] = x
		if a := math.Abs(d); a > dm {
			dm = a
		}
		if a := math.Abs(x); a > xm {
			xm = a
		} else if a != a {
			return 0, 0, errNonFinite
		}
	}
	if xm > math.MaxFloat64 {
		return 0, 0, errNonFinite
	}
	return dm, xm, nil
}

// The chord rule's two constants. A factorization whose first update in a
// step is at most chordGate·(1+|x|∞) is close enough to the solution that
// the Jacobian barely changes over the rest of the step, so it may serve
// the step's later iterations. Without that gate, a chord started from a
// far-off predictor can stall: the coarse-stepped ring shooting solves stop
// converging under a contraction test alone. A chord update larger than
// chordContraction times the previous update means the stale matrix no
// longer contracts fast enough, so the next iteration refactors.
const (
	chordGate        = 1e-3
	chordContraction = 0.3
)

// newtonPolicy is one corrector step's iteration state under the Newton
// policy every corrector shares (see newtonLoop). Its zero value starts a
// step that refactors first; newtonPolicy{chord: true} starts one on a
// factorization carried from the previous step's accepted point.
type newtonPolicy struct {
	chord bool    // the current factorization serves the next iteration
	last  float64 // the previous iteration's update size; 0 before the step's first
}

// refactor reports whether the next iteration must evaluate J and factor
// the iteration matrix; otherwise it evaluates f only and solves with the
// current factorization.
func (p *newtonPolicy) refactor() bool { return !p.chord }

// apply applies the iteration's update dx to x1 (newtonUpdate) and reports
// convergence on the update size in volts, SPICE-style:
// |dx|∞ ≤ vtol·(1+|x1|∞). Judging the raw residual instead would accept the
// raw predictor, since its C·Δx/h scale shrinks with h. fresh says the
// iteration factored its matrix. On an unconverged iteration apply decides
// whether the next one may reuse the factorization: a fresh one, and a
// carried one on the step's first iteration, must pass the gate; a chord
// iteration after that must contract.
func (p *newtonPolicy) apply(x1, dx []float64, vtol float64, fresh bool) (bool, error) {
	dm, xm, err := newtonUpdate(x1, dx)
	if err != nil {
		return false, err
	}
	s := 1 + xm
	if dm <= vtol*s {
		return true, nil
	}
	if fresh || p.last == 0 {
		p.chord = dm <= chordGate*s
	} else if dm > chordContraction*p.last {
		p.chord = false
	}
	p.last = dm
	return false, nil
}

// newtonLoop runs up to maxNewton corrector iterations on the iterate x1
// under the one Newton policy of every transient corrector. A step's first
// iteration evaluates f and J at the predictor and factors the iteration
// matrix — or, when carried is set, evaluates f only and solves with the
// factorization the previous step's sensitivity propagation left, the
// iteration matrix at the accepted point the step starts from. Once a
// factorization's first update is at most chordGate·(1+|x1|∞), later
// iterations evaluate f only and solve with it (chord iterations), until a
// chord update exceeds chordContraction times the previous update, which
// makes the next iteration refactor.
//
// solve performs one iteration's evaluation, assembly, factorization (when
// refactor is set) and solve, returning the Newton update; newtonLoop
// counts the solve and the iteration, applies the update, and stops on
// convergence. It returns x1 and the iterations taken, or the failure with
// the iterations it spent.
func newtonLoop(m *diag.Metrics, x1 linalg.Vec, maxNewton int, vtol float64, carried bool, solve func(refactor bool) (linalg.Vec, error)) (linalg.Vec, int, error) {
	p := newtonPolicy{chord: carried}
	for iter := 0; iter < maxNewton; iter++ {
		fresh := p.refactor()
		dx, err := solve(fresh)
		if err != nil {
			return nil, iter, err
		}
		m.Inc(diag.LUSolves)
		m.Inc(diag.NewtonIterations)
		done, err := p.apply(x1, dx, vtol, fresh)
		if err != nil {
			return nil, iter + 1, err
		}
		if done {
			return x1, iter + 1, nil
		}
	}
	return nil, maxNewton, errNoConverge
}

// stepper is one Newton corrector of the scalar run on one backend: the
// θ-method's (BE, Trap), or BDF2's when its corrector scales C for Gear2.
// Its matrices carry every difference between the backends. All circuit
// evaluations go through a workspace of its own and every buffer is pinned
// in it, so steppers on one shared System never contend and a steady-state
// step allocates nothing.
//
// In a sensitivity run each accepted step is factored once: the
// sensitivity system at the accepted point — C/h + θ·J for the θ-method,
// 3C/(2h) + J for BDF2 — is the next step's iteration matrix at its start,
// so its factorization is carried into that step's Newton iterations, and
// a θ step's f and J there serve the next step as f0 and J0.
type stepper struct {
	ws  *circuit.Workspace
	opt Options
	m   *diag.Metrics // nil when diagnostics are off
	cor corrector
	// f0, f1, resid, dx and the iterate x1, which a step's return value
	// aliases.
	f0, f1, resid, dx, x1 linalg.Vec
	// a holds J, then the iteration matrix, and factors it; a sensitivity
	// step factors its system in a too.
	a matrix
	// Sensitivity scratch (lazy): for the θ-method j, the Jacobian at the
	// accepted point, and the propagator's right-hand matrix r; n×n
	// products tmp, and tmp2 for BDF2.
	j, r      matrix
	tmp, tmp2 *linalg.Mat
	// What the last sensitivity step left at its accepted point, time tAt:
	// a's factorization of the iteration matrix for step size carryH (0
	// when a holds none) and, after a θ step, f and J there in f0 and j
	// (haveJ).
	tAt, carryH float64
	haveJ       bool
	pin         *pins
}

// newStepper returns sys's θ corrector, or its BDF2 one when gear is set,
// on backend be, counting its buffers on p.
func newStepper(sys *circuit.System, be linalg.Backend, gear bool, p *pins) *stepper {
	n := sys.N
	var pat *sparse.Pattern
	c := sys.C.Data
	if be == linalg.BackendSparse {
		pat, c = sys.SparsePattern(), sys.SparseC().Val
	}
	ms, scaled := newMatrices(be, n, pat, 1, len(c), p)
	v := make([]float64, 5*n)
	p.add(len(v))
	s := &stepper{
		ws: sys.NewWorkspace(),
		f0: v[:n:n], f1: v[n : 2*n : 2*n], resid: v[2*n : 3*n : 3*n], dx: v[3*n : 4*n : 4*n], x1: v[4*n:],
		a: ms[0], pin: p,
	}
	s.cor = newCorrector(sys, c, scaled, s.dx, gear)
	return s
}

// bind points the stepper at this run's options and metrics, with nothing
// carried from an earlier run.
func (s *stepper) bind(opt Options, m *diag.Metrics) {
	s.opt = opt
	s.m = m
	s.ws.SetMetrics(m)
	s.carryH, s.haveJ = 0, false
}

// carried reports whether a step of size h from time t0 starts from the
// factorization the last sensitivity step left.
func (s *stepper) carried(t0, h float64) bool { return s.carryH == h && s.tAt == t0 }

// theta solves C(x1−x0)/h + θ f(x1,t1) + (1−θ) f(x0,t0) = 0 for x1 from
// the predictor. The step runs from (x0, t0) to the time t1 with the
// formula's step size h; on a fixed-step grid t1 − t0 and h differ by
// rounding, and the circuit is evaluated at the grid's own times, so a time
// point's rail values are computed once. The returned vector aliases the
// stepper's iterate; callers copy it before the next step.
func (s *stepper) theta(x0, pred linalg.Vec, t0, t1, h float64) (linalg.Vec, int, error) {
	th := s.opt.Method.theta()
	if !s.haveJ || s.tAt != t0 {
		s.ws.EvalF(x0, t0, s.f0)
	}
	s.x1.CopyFrom(pred)
	return s.correct(t1, h, th, s.carried(t0, h), func() { s.cor.thetaResidual(s.resid, s.x1, x0, s.f1, s.f0, th, h) })
}

// gear solves C·(3x1 − 4x0 + xm1)/(2h) + f(x1,t1) = 0 for x1 from the line
// through xm1 and x0, its two predecessors h apart, stepping from t0 to t1.
func (s *stepper) gear(xm1, x0 linalg.Vec, t0, t1, h float64) (linalg.Vec, int, error) {
	for i := range s.x1 {
		s.x1[i] = 2*x0[i] - xm1[i]
	}
	return s.correct(t1, h, 1, s.carried(t0, h), func() { s.cor.gearResidual(s.resid, s.x1, x0, xm1, s.f1, h) })
}

// correct runs the Newton iterations on x1, from the carried factorization
// when carried is set: each evaluates f1 at (x1, t1), J as well when it
// refactors, and resid; a refactoring iteration turns J into the iteration
// matrix scaledC + w·J and factors it, which ends the carry.
func (s *stepper) correct(t1, h, w float64, carried bool, resid func()) (linalg.Vec, int, error) {
	return newtonLoop(s.m, s.x1, s.opt.MaxNewton, updateTol(s.opt.NewtonTol), carried, func(refactor bool) (linalg.Vec, error) {
		if refactor {
			s.a.eval(s.ws, s.x1, t1, s.f1)
		} else {
			s.ws.EvalF(s.x1, t1, s.f1)
		}
		resid()
		if refactor {
			s.carryH = 0
			addScaled(s.a.vals(), s.cor.scaledC(h), s.a.vals(), w)
			if err := s.a.factor(s.m); err != nil {
				return nil, fmt.Errorf("transient: singular iteration matrix: %w", err)
			}
		}
		return s.a.solve(s.dx, s.resid), nil
	})
}

// thetaSens propagates the monodromy factor through the accepted θ step,
// updating sens in place:
//
//	S ← (C/h + θ·J1)⁻¹ · (C/h − (1−θ)·J0) · S
//
// J0 is the one the previous sensitivity step kept, or evaluated at
// (x0, t0) on a run's first step. The evaluation at (x1, t1) is kept as the
// next step's f0 and J0, and the factored C/h + θ·J1 as its carried
// iteration matrix.
func (s *stepper) thetaSens(x0, x1 linalg.Vec, t0, t1, h float64, sens *linalg.Mat) error {
	th := s.opt.Method.theta()
	if s.r == nil {
		s.j, s.r, s.tmp = s.a.sibling(), s.a.sibling(), s.pin.mat(len(x1))
	}
	ch := s.cor.scaledC(h)
	if !s.haveJ || s.tAt != t0 {
		s.j.eval(s.ws, x0, t0, s.f0)
	}
	addScaled(s.r.vals(), ch, s.j.vals(), -(1 - th))
	s.j.eval(s.ws, x1, t1, s.f0)
	addScaled(s.a.vals(), ch, s.j.vals(), th)
	s.tAt, s.carryH, s.haveJ = t1, 0, true
	if err := propagateTheta(s.m, s.a, s.r, sens, s.tmp); err != nil {
		return fmt.Errorf("transient: %w", err)
	}
	s.carryH = h
	return nil
}

// propagateTheta factors the θ sensitivity system lhs = C/h + θ·J1 and
// sets sens to lhs⁻¹·rhs·sens, rhs holding C/h − (1−θ)·J0.
func propagateTheta(m *diag.Metrics, lhs, rhs matrix, sens, tmp *linalg.Mat) error {
	if err := lhs.factor(m); err != nil {
		return fmt.Errorf("singular sensitivity matrix: %w", err)
	}
	m.Add(diag.LUSolves, int64(sens.Rows))
	lhs.propagate(rhs, sens, tmp)
	return nil
}

// gearSens propagates the monodromy through the accepted BDF2 step to
// (x1, t1), writing
//
//	(3C/(2h) + J1)⁻¹ · C·(4·S_n − S_{n−1})/(2h)
//
// into dst, and keeps the factored 3C/(2h) + J1 as the next step's carried
// iteration matrix. C·(…) is the product over C's nonzeros, which adds the
// terms of the dense row product in its order, less C's exact zeros.
func (s *stepper) gearSens(x1 linalg.Vec, t1, h float64, dst, sN, sNm1 *linalg.Mat) error {
	n := len(x1)
	if s.tmp2 == nil {
		s.tmp, s.tmp2 = s.pin.mat(n), s.pin.mat(n)
	}
	s.a.eval(s.ws, x1, t1, s.f1)
	addScaled(s.a.vals(), s.cor.scaledC(h), s.a.vals(), 1)
	s.tAt, s.carryH = t1, 0
	if err := s.a.factor(s.m); err != nil {
		return fmt.Errorf("transient: singular sensitivity matrix: %w", err)
	}
	s.carryH = h
	for i := range s.tmp.Data {
		s.tmp.Data[i] = (4*sN.Data[i] - sNm1.Data[i]) / (2 * h)
	}
	s.cor.cs.MulMatInto(s.tmp2, s.tmp)
	s.a.solveMat(dst, s.tmp2)
	s.m.Add(diag.LUSolves, int64(n))
	return nil
}
