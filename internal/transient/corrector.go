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

// This file holds the Newton-iteration pieces every transient corrector
// shares — the dense and sparse θ and Gear2 steppers and the batched lanes:
// the method-scaled capacitance cache, the residual's capacitive term over
// C's nonzeros, and the clamped update with its convergence test. Each piece
// performs the floating-point operations of the n²-dense assembly it
// replaced (kept as the test oracle), in the same order, less additions of
// exact zeros, so its results are bit for bit the same; it only stops
// recomputing values that are already known.

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

// addScaled turns the Jacobian values j into the iteration matrix
// scaled + w·j in place — w = θ for the θ-method, 1 for Gear2 (an exact
// multiply). scaled is the matching layout from scaledC.
func addScaled(j, scaled []float64, w float64) {
	scaled = scaled[:len(j)]
	for i, v := range j {
		j[i] = scaled[i] + w*v
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
// but the tgate logistic can still overshoot), sets x1 −= dx, and reports
// convergence on the update size in volts, SPICE-style:
// |dx|∞ ≤ vtol·(1+|x1|∞). Judging the raw residual instead would accept the
// raw predictor, since its C·Δx/h scale shrinks with h. A non-finite
// update or iterate fails with errNonFinite: a NaN update entry, and an
// infinite one (which the clamp turns into ∞·0), leave a NaN in the
// iterate, and an infinite iterate shows in its norm. dx is left unclamped.
func newtonUpdate(x1, dx []float64, vtol float64) (bool, error) {
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
	dm, xm := 0.0, 0.0
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
			return false, errNonFinite
		}
	}
	if xm > math.MaxFloat64 {
		return false, errNonFinite
	}
	return dm <= vtol*(1+xm), nil
}

// newtonLoop runs up to maxNewton corrector iterations on the iterate x1.
// solve performs one iteration's evaluation, assembly, factorization and
// solve, returning the Newton update; newtonLoop counts the solve and the
// iteration, applies the update, and stops on convergence. It returns x1
// and the iterations taken, or the failure.
func newtonLoop(m *diag.Metrics, x1 linalg.Vec, maxNewton int, vtol float64, solve func() (linalg.Vec, error)) (linalg.Vec, int, error) {
	for iter := 0; iter < maxNewton; iter++ {
		dx, err := solve()
		if err != nil {
			return nil, iter, err
		}
		m.Inc(diag.LUSolves)
		m.Inc(diag.NewtonIterations)
		done, err := newtonUpdate(x1, dx, vtol)
		if err != nil {
			return nil, iter + 1, err
		}
		if done {
			return x1, iter + 1, nil
		}
	}
	return nil, maxNewton, errNoConverge
}

// denseFactor runs FactorizeInto with the dense counter discipline: every
// call counts a factorization, and one that kept its buffers a reuse.
func denseFactor(m *diag.Metrics, lu *linalg.LU, a *linalg.Mat) error {
	err := lu.FactorizeInto(a)
	m.Inc(diag.LUFactorizations)
	if lu.ReusedBuffers() {
		m.Inc(diag.LUFactorizationsReused)
	}
	return err
}
