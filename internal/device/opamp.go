package device

import (
	"math"

	"repro/internal/circuit"
)

// Summer is a behavioural op-amp weighted summer with a soft-saturating
// output stage. It models the majority / NOT combinational gates the paper
// builds from op-amps with resistive feedback (Sec. 5.2): the output tries
// to reach
//
//	Vtarget = Mid + Swing·tanh( Σ wᵢ·(Vᵢ − Mid) / Swing )
//
// and drives the Out node through Rout. With negative weights it is an
// inverting summer; a single weight of −1 is the phase-logic NOT gate, and
// equal positive weights form a majority gate (the tanh limiter restores the
// standard signal amplitude, which is exactly what the resistive-feedback
// op-amp stage does on the breadboard).
type Summer struct {
	Name    string
	Inputs  []circuit.NodeID
	Weights []float64
	Out     circuit.NodeID
	Mid     float64 // common-mode reference (Vdd/2 on the breadboard)
	Swing   float64 // saturation half-swing around Mid
	Rout    float64 // output resistance of the op-amp stage
}

// Label implements circuit.Device.
func (s *Summer) Label() string { return s.Name }

// StampC implements circuit.Device.
func (s *Summer) StampC(*circuit.CapStamper) {}

// Eval implements circuit.Device.
func (s *Summer) Eval(ctx *circuit.EvalContext) {
	if len(s.Inputs) != len(s.Weights) {
		panic("device: Summer inputs/weights length mismatch")
	}
	u := 0.0
	for i, n := range s.Inputs {
		u += s.Weights[i] * (ctx.V(n) - s.Mid)
	}
	th := math.Tanh(u / s.Swing)
	vt := s.Mid + s.Swing*th
	g := 1 / s.Rout
	// Current out of Out node toward the (ideal) internal stage.
	iOut := g * (ctx.V(s.Out) - vt)
	ctx.AddCurrent(s.Out, iOut)
	ctx.AddJac(s.Out, s.Out, g)
	// dvt/dVi = sech²(u/Swing)·wᵢ ; d(iOut)/dVi = -g·dvt/dVi.
	sech2 := 1 - th*th
	for i, n := range s.Inputs {
		ctx.AddJac(s.Out, n, -g*sech2*s.Weights[i])
	}
}

// TransGate is a transmission-gate switch between A and B whose conductance
// is controlled by the voltage on Ctrl: Roff below Voff, Ron above Von, with
// a smooth (C¹) logistic transition in between. This models the
// ALD1106/ALD1107 transmission gate of the paper's D latch (Ron ≈ 1 kΩ,
// Roff ≈ 100 GΩ).
type TransGate struct {
	Name string
	A, B circuit.NodeID
	Ctrl circuit.NodeID
	Ron  float64
	Roff float64
	// Von/Voff bound the control transition; defaults 2.0/1.0 V fit a
	// 3 V supply.
	Von, Voff float64
}

// Label implements circuit.Device.
func (t *TransGate) Label() string { return t.Name }

// StampC implements circuit.Device.
func (t *TransGate) StampC(*circuit.CapStamper) {}

// conductance returns g(vc) and dg/dvc. The conductance is interpolated
// geometrically (log-space) between 1/Roff and 1/Ron so that both extremes
// are represented faithfully despite spanning ~8 decades.
func (t *TransGate) conductance(vc float64) (g, dg float64) {
	von, voff := t.Von, t.Voff
	if von == 0 && voff == 0 {
		von, voff = 2.0, 1.0
	}
	gOn, gOff := 1/t.Ron, 1/t.Roff
	// Logistic activation centred between Voff and Von.
	mid := 0.5 * (von + voff)
	width := (von - voff) / 8 // ~±4σ inside the band
	a := 1 / (1 + math.Exp(-(vc-mid)/width))
	da := a * (1 - a) / width
	lgOff := math.Log(gOff)
	span := math.Log(gOn) - lgOff
	g = math.Exp(lgOff + a*span)
	dg = g * da * span
	return g, dg
}

// Eval implements circuit.Device.
func (t *TransGate) Eval(ctx *circuit.EvalContext) {
	vc := ctx.V(t.Ctrl)
	g, dg := t.conductance(vc)
	vab := ctx.V(t.A) - ctx.V(t.B)
	i := g * vab
	ctx.AddCurrent(t.A, i)
	ctx.AddCurrent(t.B, -i)
	ctx.AddJac(t.A, t.A, g)
	ctx.AddJac(t.A, t.B, -g)
	ctx.AddJac(t.B, t.A, -g)
	ctx.AddJac(t.B, t.B, g)
	// Control dependence.
	ctx.AddJac(t.A, t.Ctrl, dg*vab)
	ctx.AddJac(t.B, t.Ctrl, -dg*vab)
}
