package device

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/linalg"
)

// The reference stamps: every device type's scalar stamp as it was written
// before kernels, evaluated one device at a time through a minimal dense
// context that reads rails afresh from Circuit.RailVoltage. RefEval is the
// bit-identity oracle every kernel is held to (oracle_test.go).

// refContext carries the operating point to the reference stamps and
// accumulates f (out of each node) and J = df/dx into dense storage.
type refContext struct {
	ckt          *circuit.Circuit
	T            float64
	X, F         linalg.Vec
	J            *linalg.Mat
	WantJacobian bool
	GminScale    float64
	SourceScale  float64
}

// V returns the voltage of any node at the context's (x, t).
func (ctx *refContext) V(n circuit.NodeID) float64 {
	if n.IsFree() {
		return ctx.X[int(n)]
	}
	return ctx.ckt.RailVoltage(n, ctx.T)
}

// AddCurrent adds a current i flowing out of node n into the device.
func (ctx *refContext) AddCurrent(n circuit.NodeID, i float64) {
	if n.IsFree() {
		ctx.F[int(n)] += i
	}
}

// AddJac adds dI(out of n)/dV(m) to the Jacobian.
func (ctx *refContext) AddJac(n, m circuit.NodeID, d float64) {
	if ctx.WantJacobian && n.IsFree() && m.IsFree() {
		ctx.J.Addf(int(n), int(m), d)
	}
}

// RefEval evaluates sys at (x, t) through the reference stamps into f and,
// when j is not nil, J: the devices in declaration order, then the Gmin
// diagonal, then the source terms C·dV/dt of capacitors to moving rails in
// the order Assemble records them.
func RefEval(sys *circuit.System, x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat, gminScale, srcScale float64) {
	f.Zero()
	if j != nil {
		j.Zero()
	}
	ctx := &refContext{ckt: sys.Ckt, T: t, X: x, F: f, J: j, WantJacobian: j != nil,
		GminScale: gminScale, SourceScale: srcScale}
	devs := sys.Ckt.Devices()
	for _, d := range devs {
		d.(interface{ refEval(*refContext) }).refEval(ctx)
	}
	g := sys.Ckt.Gmin * ctx.GminScale
	for i := 0; i < sys.N; i++ {
		ctx.F[i] += g * ctx.X[i]
		ctx.AddJac(circuit.NodeID(i), circuit.NodeID(i), g)
	}
	moving := func(n circuit.NodeID) bool { return !n.IsFree() && n != circuit.Ground }
	for _, d := range devs {
		if c, ok := d.(*Capacitor); ok {
			if c.A.IsFree() && moving(c.B) {
				ctx.F[c.A] -= c.C * sys.Ckt.RailDVDt(c.B, t)
			}
			if c.B.IsFree() && moving(c.A) {
				ctx.F[c.B] -= c.C * sys.Ckt.RailDVDt(c.A, t)
			}
		}
	}
}

// ids computes the drain current and its partials for vds ≥ 0 (internally
// guaranteed by the caller's source/drain swap). With cutoff smoothing, gm
// takes the chain-rule factor dvov after the region branch.
func (m *MOSFET) ids(vgs, vds float64) (id, gm, gds float64) {
	p := m.Params
	vov := vgs - p.VT0
	var dvov float64
	if d := p.SmoothVov; d > 0 {
		// Softplus-style smoothing: vov_eff → 0 smoothly below threshold.
		s := math.Sqrt(vov*vov + d*d)
		dvov = 0.5 * (1 + vov/s)
		vov = 0.5 * (vov + s)
	} else if vov <= 0 {
		return 0, 0, 0
	}
	clm := 1 + p.Lambda*vds
	if vds < vov { // triode
		id = p.Beta * (vov*vds - 0.5*vds*vds) * clm
		gm = p.Beta * vds * clm
		gds = p.Beta*(vov-vds)*clm + p.Beta*(vov*vds-0.5*vds*vds)*p.Lambda
	} else { // saturation
		id = 0.5 * p.Beta * vov * vov * clm
		gm = p.Beta * vov * clm
		gds = 0.5 * p.Beta * vov * vov * p.Lambda
	}
	if p.SmoothVov > 0 {
		gm *= dvov
	}
	return id, gm, gds
}

// refEval is the reference stamp.
func (m *MOSFET) refEval(ctx *refContext) {
	mult := m.Mult
	if mult == 0 {
		mult = 1
	}
	vd, vg, vs := ctx.V(m.D), ctx.V(m.G), ctx.V(m.S)
	sign := 1.0
	if m.PMOS {
		vd, vg, vs = -vd, -vg, -vs
		sign = -1
	}
	// Symmetric source/drain handling: operate on the terminal pair so that
	// the effective vds ≥ 0.
	dNode, sNode := m.D, m.S
	if vd < vs {
		vd, vs = vs, vd
		dNode, sNode = m.S, m.D
	}
	vgs, vds := vg-vs, vd-vs
	id, gm, gds := m.ids(vgs, vds)
	id *= mult
	gm *= mult
	gds *= mult

	// Current flows D→S inside the device: leaves dNode, enters sNode
	// (positive conventional current for NMOS with vds ≥ 0).
	ctx.AddCurrent(dNode, sign*id)
	ctx.AddCurrent(sNode, -sign*id)

	// Jacobian in mirrored/swapped coordinates:
	//   dId/dVd = gds, dId/dVg = gm, dId/dVs = -(gm + gds)
	// For PMOS, terminal voltages were negated, so each partial w.r.t. a
	// real terminal voltage gains a (-1) that cancels the sign on the
	// current: d(sign·id)/dVreal = sign·∂id/∂vmirror·(sign) = ∂id/∂vmirror.
	ctx.AddJac(dNode, dNode, gds)
	ctx.AddJac(dNode, m.G, gm)
	ctx.AddJac(dNode, sNode, -(gm + gds))
	ctx.AddJac(sNode, dNode, -gds)
	ctx.AddJac(sNode, m.G, -gm)
	ctx.AddJac(sNode, sNode, gm+gds)
}

// refEval is the reference stamp.
func (s *Summer) refEval(ctx *refContext) {
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

// refEval is the reference stamp.
func (t *TransGate) refEval(ctx *refContext) {
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

// refEval is the reference stamp.
func (r *Resistor) refEval(ctx *refContext) {
	g := 1 / r.R
	i := g * (ctx.V(r.A) - ctx.V(r.B))
	ctx.AddCurrent(r.A, i)
	ctx.AddCurrent(r.B, -i)
	ctx.AddJac(r.A, r.A, g)
	ctx.AddJac(r.A, r.B, -g)
	ctx.AddJac(r.B, r.A, -g)
	ctx.AddJac(r.B, r.B, g)
}

// refEval is the reference stamp (capacitors carry no resistive current).
func (c *Capacitor) refEval(*refContext) {}

// refEval is the reference stamp.
func (c *Conductor) refEval(ctx *refContext) {
	i := c.G * (ctx.V(c.A) - ctx.V(c.B))
	ctx.AddCurrent(c.A, i)
	ctx.AddCurrent(c.B, -i)
	ctx.AddJac(c.A, c.A, c.G)
	ctx.AddJac(c.A, c.B, -c.G)
	ctx.AddJac(c.B, c.A, -c.G)
	ctx.AddJac(c.B, c.B, c.G)
}

// refEval is the reference stamp.
func (v *VCCS) refEval(ctx *refContext) {
	i := v.Gm * (ctx.V(v.CtrlP) - ctx.V(v.CtrlN))
	ctx.AddCurrent(v.OutP, i)
	ctx.AddCurrent(v.OutN, -i)
	ctx.AddJac(v.OutP, v.CtrlP, v.Gm)
	ctx.AddJac(v.OutP, v.CtrlN, -v.Gm)
	ctx.AddJac(v.OutN, v.CtrlP, -v.Gm)
	ctx.AddJac(v.OutN, v.CtrlN, v.Gm)
}

// refEval is the reference stamp.
func (s *CurrentSource) refEval(ctx *refContext) {
	i := s.I(ctx.T) * ctx.SourceScale
	ctx.AddCurrent(s.From, i)
	ctx.AddCurrent(s.To, -i)
}

// refEval is the reference stamp.
func (s *SineCurrent) refEval(ctx *refContext) {
	i := (s.Amp*math.Cos(2*math.Pi*(s.Freq*ctx.T+s.Phase)) + s.Offset) * ctx.SourceScale
	ctx.AddCurrent(s.From, i)
	ctx.AddCurrent(s.To, -i)
}

// refEval is the reference stamp.
func (s *PWLCurrent) refEval(ctx *refContext) {
	i := s.At(ctx.T) * ctx.SourceScale
	ctx.AddCurrent(s.From, i)
	ctx.AddCurrent(s.To, -i)
}
