package device

import (
	"math"

	"repro/internal/circuit"
)

// MOSParams holds long-channel (square-law) MOSFET parameters. Beta is the
// composite transconductance KP·W/L in A/V². VT0 is positive for both
// polarities (the PMOS model internally mirrors voltages). SmoothVov softens
// the cutoff corner to keep Newton iterations well-conditioned; 0 selects
// the hard square law.
type MOSParams struct {
	VT0       float64 // threshold voltage magnitude, V
	Beta      float64 // KP·W/L, A/V²
	Lambda    float64 // channel-length modulation, 1/V
	SmoothVov float64 // cutoff smoothing, V (typ. 1e-3)
}

// ALD1106 returns parameters resembling the ALD1106 quad NMOS array used on
// the paper's breadboards, with Beta calibrated (see internal/ringosc) so a
// 3-stage ring with 4.7 nF stage loads free-runs near 9.6 kHz at Vdd = 3 V.
func ALD1106() MOSParams {
	return MOSParams{VT0: 0.7, Beta: 4.85e-4, Lambda: 0.02, SmoothVov: 1e-3}
}

// ALD1107 returns matching PMOS parameters (ALD1107 quad PMOS array). The
// PMOS transconductance is ~0.4× the NMOS one (hole mobility), which
// asymmetrizes the inverter waveform; this is what gives even the paper's
// "1N1P" latch a usable PPV second harmonic for SHIL.
func ALD1107() MOSParams {
	return MOSParams{VT0: 0.8, Beta: 1.94e-4, Lambda: 0.02, SmoothVov: 1e-3}
}

// MOSFET is a three-terminal long-channel MOSFET (bulk tied to source). The
// model is the standard C¹-continuous square law: cutoff / triode /
// saturation with channel-length modulation, symmetric in drain-source
// reversal. PMOS devices mirror all voltages and currents.
type MOSFET struct {
	Name    string
	D, G, S circuit.NodeID
	Params  MOSParams
	PMOS    bool
	// Mult parallels Mult identical devices (used for the 2N1P inverter
	// variant); 0 means 1.
	Mult float64
}

// Label implements circuit.Device.
func (m *MOSFET) Label() string { return m.Name }

// StampC implements circuit.Device (no capacitance in this model; external
// load capacitors dominate in the paper's kHz-range breadboard circuits).
func (m *MOSFET) StampC(*circuit.CapStamper) {}

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

// Eval implements circuit.Device.
func (m *MOSFET) Eval(ctx *circuit.EvalContext) {
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
