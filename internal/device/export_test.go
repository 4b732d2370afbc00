package device

import (
	"math"

	"repro/internal/circuit"
)

// RefMOSFET evaluates a MOSFET through the stamp it replaced: a deferred
// smoothing factor in the current law and a closure per Jacobian row. It is
// the bit-identity oracle for MOSFET.Eval.
type RefMOSFET struct{ *MOSFET }

func (m RefMOSFET) ids(vgs, vds float64) (id, gm, gds float64) {
	p := m.Params
	vov := vgs - p.VT0
	if d := p.SmoothVov; d > 0 {
		s := math.Sqrt(vov*vov + d*d)
		dvov := 0.5 * (1 + vov/s)
		vov = 0.5 * (vov + s)
		defer func() { gm *= dvov }()
	} else if vov <= 0 {
		return 0, 0, 0
	}
	clm := 1 + p.Lambda*vds
	if vds < vov {
		id = p.Beta * (vov*vds - 0.5*vds*vds) * clm
		gm = p.Beta * vds * clm
		gds = p.Beta*(vov-vds)*clm + p.Beta*(vov*vds-0.5*vds*vds)*p.Lambda
	} else {
		id = 0.5 * p.Beta * vov * vov * clm
		gm = p.Beta * vov * clm
		gds = 0.5 * p.Beta * vov * vov * p.Lambda
	}
	return id, gm, gds
}

// Eval implements circuit.Device.
func (m RefMOSFET) Eval(ctx *circuit.EvalContext) {
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
	ctx.AddCurrent(dNode, sign*id)
	ctx.AddCurrent(sNode, -sign*id)
	addJ := func(row circuit.NodeID, dd, dg, ds float64) {
		ctx.AddJac(row, dNode, dd)
		ctx.AddJac(row, m.G, dg)
		ctx.AddJac(row, sNode, ds)
	}
	addJ(dNode, gds, gm, -(gm + gds))
	addJ(sNode, -gds, -gm, gm+gds)
}

// RefTransGate evaluates a transmission gate through the conductance law it
// replaced, which took each logarithm more than once per call.
type RefTransGate struct{ *TransGate }

func (t RefTransGate) conductance(vc float64) (g, dg float64) {
	von, voff := t.Von, t.Voff
	if von == 0 && voff == 0 {
		von, voff = 2.0, 1.0
	}
	gOn, gOff := 1/t.Ron, 1/t.Roff
	mid := 0.5 * (von + voff)
	width := (von - voff) / 8
	a := 1 / (1 + math.Exp(-(vc-mid)/width))
	da := a * (1 - a) / width
	lg := math.Log(gOff) + a*(math.Log(gOn)-math.Log(gOff))
	g = math.Exp(lg)
	dg = g * da * (math.Log(gOn) - math.Log(gOff))
	return g, dg
}

// Eval implements circuit.Device.
func (t RefTransGate) Eval(ctx *circuit.EvalContext) {
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
	ctx.AddJac(t.A, t.Ctrl, dg*vab)
	ctx.AddJac(t.B, t.Ctrl, -dg*vab)
}
