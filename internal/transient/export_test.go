package transient

import (
	"repro/internal/circuit"
	"repro/internal/linalg"
)

// StepFunc is one corrector step: the accepted iterate, its Newton
// iteration count, or the failure. a and b are the method's two history
// states — (x0, predictor) for the θ-method, (x_{n−1}, x_n) for Gear2.
type StepFunc func(a, b linalg.Vec, t, h float64) (linalg.Vec, int, error)

// ThetaStepper returns the θ step from t to t+h of a one-lane scratch on
// opt's backend (opt's defaults must already be filled in): the lane's
// Newton loop from the predictor it is given, with f at (x0, t) evaluated
// and no factorization carried in.
func ThetaStepper(sys *circuit.System, opt Options) StepFunc {
	return laneStepper(sys, opt, false)
}

// GearStepper returns the BDF2 step from t to t+h of a one-lane scratch on
// opt's backend: the lane's predictor, the line through x_{n−1} and x_n,
// and its Newton loop, with no factorization carried in.
func GearStepper(sys *circuit.System, opt Options) StepFunc {
	return laneStepper(sys, opt, true)
}

// laneStepper sets a one-lane scratch's lane at the step's start and runs
// the step as the run loop does: f at the start point, the predictor for a
// BDF2 step, and the masked Newton loop.
func laneStepper(sys *circuit.System, opt Options, gear bool) StepFunc {
	sc := NewScratch(sys).b
	sc.ensureLanes(sys.ResolveBackend(opt.Backend))
	th := 1.0
	if !gear {
		th = opt.Method.theta()
	}
	return func(a, b linalg.Vec, t, h float64) (linalg.Vec, int, error) {
		ln := &sc.lanes[0]
		*ln = lane{hf: h, bdf: gear}
		sc.live = append(sc.live[:0], 0)
		sc.tl[0], sc.tl1[0] = t, t+h
		if gear {
			copy(sc.prev, a)
			copy(sc.x, b)
			sc.predictLane(0, true)
		} else {
			copy(sc.x, a)
			copy(sc.x1, b)
		}
		sc.evalPoints(false)
		iters := sc.newton(th, updateTol(opt.NewtonTol), opt.MaxNewton, nil)
		if ln.err != nil {
			return nil, iters, ln.err
		}
		return sc.x1, iters, nil
	}
}

// Predict is the θ predictor of the run loop.
var Predict = predict
