package transient

import (
	"repro/internal/circuit"
	"repro/internal/linalg"
)

// StepFunc is one corrector step: the accepted iterate, its Newton
// iteration count, or the failure. a and b are the method's two history
// states — (x0, predictor) for the θ-method, (x_{n−1}, x_n) for Gear2.
type StepFunc func(a, b linalg.Vec, t, h float64) (linalg.Vec, int, error)

// ThetaStepper returns the step from t to t+h of a fresh Scratch's θ
// corrector on opt's backend (opt's defaults must already be filled in).
func ThetaStepper(sys *circuit.System, opt Options) StepFunc {
	st := NewScratch(sys).stepper(opt, false, nil)
	return func(x0, pred linalg.Vec, t, h float64) (linalg.Vec, int, error) {
		return st.theta(x0, pred, t, t+h, h)
	}
}

// GearStepper returns the step from t to t+h of a fresh Scratch's BDF2
// corrector on opt's backend.
func GearStepper(sys *circuit.System, opt Options) StepFunc {
	g := NewScratch(sys).stepper(opt, true, nil)
	return func(xm1, x0 linalg.Vec, t, h float64) (linalg.Vec, int, error) {
		return g.gear(xm1, x0, t, t+h, h)
	}
}

// Predict is the θ predictor the scalar run and the batched lanes share.
var Predict = predict
