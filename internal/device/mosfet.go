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

// mosfetKernel evaluates MOSFETs: terminals and polarity are shared by a
// position's lanes, the parameters vary per lane.
type mosfetKernel struct {
	cells []mosfetCell
	// slots[i·6 + r·3 + c]: row r ∈ {0:D, 1:S}, col c ∈ {0:D, 1:G, 2:S}. Both
	// source/drain-swap orientations stamp within this six-position stencil.
	slots []int
	k     int
}

type mosfetCell struct {
	d, g, s                         term
	pmos                            bool
	vt0, beta, lambda, smooth, mult float64
}

// NewKernel implements circuit.Device.
func (*MOSFET) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	n, nk := p.Len(), lay.Lanes()
	kn := &mosfetKernel{cells: make([]mosfetCell, n*nk), slots: lay.Slots(6 * n), k: nk}
	for i := 0; i < n; i++ {
		m := p.At(i, 0).(*MOSFET)
		rows, cols := [2]circuit.NodeID{m.D, m.S}, [3]circuit.NodeID{m.D, m.G, m.S}
		for r := range rows {
			for c := range cols {
				kn.slots[6*i+3*r+c] = lay.Slot(rows[r], cols[c])
			}
		}
		for k := 0; k < nk; k++ {
			pm := p.At(i, k).(*MOSFET)
			if pm.D != m.D || pm.G != m.G || pm.S != m.S || pm.PMOS != m.PMOS {
				return nil, laneMismatch(pm, k, "terminals or polarity")
			}
			mult := pm.Mult // 0 means 1
			if mult == 0 {
				mult = 1
			}
			q := pm.Params
			kn.cells[i*nk+k] = mosfetCell{term(m.D), term(m.G), term(m.S), m.PMOS, q.VT0, q.Beta, q.Lambda, q.SmoothVov, mult}
		}
	}
	return kn, nil
}

// Eval evaluates the square law for vds ≥ 0 (the source/drain swap
// guarantees it). With cutoff smoothing, gm takes the chain-rule factor
// dvov after the region branch.
//
// Current flows D→S inside the device: it leaves dNode and enters sNode.
// The Jacobian is taken in mirrored/swapped coordinates — dId/dVd = gds,
// dId/dVg = gm, dId/dVs = −(gm + gds); for PMOS each partial with respect
// to a real terminal voltage gains a (−1) that cancels the sign on the
// current.
func (kn *mosfetKernel) Eval(lo, hi int, e *circuit.EvalContext) {
	wantJ := e.WantJacobian
	for i := lo; i < hi; i++ {
		sl := kn.slots[6*i : 6*i+6]
		for _, k := range e.Active {
			p, base := &kn.cells[i*kn.k+k], k*e.N
			vd, vg, vs := p.d.v(e, k, base), p.g.v(e, k, base), p.s.v(e, k, base)
			sign := 1.0
			if p.pmos {
				vd, vg, vs = -vd, -vg, -vs
				sign = -1
			}
			dNode, sNode := p.d, p.s
			swapped := false
			if vd < vs {
				vd, vs = vs, vd
				dNode, sNode = p.s, p.d
				swapped = true
			}
			vgs, vds := vg-vs, vd-vs

			vov := vgs - p.vt0
			var id, gm, gds, dvov float64
			cut := false
			if sm := p.smooth; sm > 0 {
				// Softplus-style smoothing: vov_eff → 0 smoothly below threshold.
				s := math.Sqrt(vov*vov + sm*sm)
				if wantJ {
					dvov = 0.5 * (1 + vov/s)
				}
				vov = 0.5 * (vov + s)
			} else if vov <= 0 {
				cut = true
			}
			if !cut {
				clm := 1 + p.lambda*vds
				if vds < vov { // triode
					id = p.beta * (vov*vds - 0.5*vds*vds) * clm
					if wantJ {
						gm = p.beta * vds * clm
						gds = p.beta*(vov-vds)*clm + p.beta*(vov*vds-0.5*vds*vds)*p.lambda
					}
				} else { // saturation
					id = 0.5 * p.beta * vov * vov * clm
					if wantJ {
						gm = p.beta * vov * clm
						gds = 0.5 * p.beta * vov * vov * p.lambda
					}
				}
				if p.smooth > 0 {
					gm *= dvov
				}
			}
			id *= p.mult
			dNode.add(e, base, sign*id)
			sNode.add(e, base, -sign*id)
			if !wantJ {
				continue
			}
			gm *= p.mult
			gds *= p.mult
			jb := k * e.NNZ
			if !swapped {
				// rows (D, S) × cols (dNode=D, G, sNode=S)
				jadd(e, jb, sl[0], gds)
				jadd(e, jb, sl[1], gm)
				jadd(e, jb, sl[2], -(gm + gds))
				jadd(e, jb, sl[3], -gds)
				jadd(e, jb, sl[4], -gm)
				jadd(e, jb, sl[5], gm+gds)
			} else {
				// dNode is terminal S, sNode is terminal D: same stencil,
				// permuted roles.
				jadd(e, jb, sl[5], gds)
				jadd(e, jb, sl[4], gm)
				jadd(e, jb, sl[3], -(gm + gds))
				jadd(e, jb, sl[2], -gds)
				jadd(e, jb, sl[1], -gm)
				jadd(e, jb, sl[0], gm+gds)
			}
		}
	}
}
