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

// This file holds the Newton corrector's pieces: the θ predictor, the
// method-scaled capacitance cache, the residual's capacitive term over C's
// nonzeros, the clamped update, the Newton policy (convergence test,
// refactor or chord) and the θ sensitivity propagation. The lanes
// (batch.go) take every step with them over the backend's matrix type
// (matrix.go). The capacitance cache and the residual perform the
// floating-point operations of the n²-dense assembly they replaced (kept
// as the test oracle), in the same order, less additions of exact zeros,
// so their results are bit for bit the same.

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
	d      []float64   // the state combination C multiplies; lent by the scratch, len n
	c      []float64   // C's values to scale (dense Data or pattern Val), read-only
	scaled []float64   // c/h, or 3·c/(2h) for Gear2; pinned, len(c)
	h      float64     // step size scaled holds; 0 before the first use
	gear   bool
}

// newCorrector binds a θ corrector to sys's C. c holds the C values the
// iteration matrix is laid out on, scaled is pinned storage of the same
// length, and d is an n-vector the scratch lends: the corrector only writes
// it while forming a residual, before the Newton solve that fills it.
func newCorrector(sys *circuit.System, c, scaled, d []float64) corrector {
	return corrector{cs: sys.CNonzeros(), d: d, c: c, scaled: scaled}
}

// setGear switches the scaling between the θ-method's and Gear2's, as a
// Gear2 lane does between its BE and BDF2 steps.
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
// policy. A step's first iteration evaluates f and J at the predictor and
// factors the iteration matrix — or, when it starts on a factorization
// carried from the previous step's sensitivity propagation (the iteration
// matrix at the accepted point the step starts from), evaluates f only and
// solves with it. Once a factorization's first update is at most
// chordGate·(1+|x1|∞), later iterations evaluate f only and solve with it
// (chord iterations), until a chord update exceeds chordContraction times
// the previous update, which makes the next iteration refactor. Its zero
// value starts a step that refactors first; newtonPolicy{chord: true}
// starts one on a carried factorization.
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
