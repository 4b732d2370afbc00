package device

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// Batched (structure-of-arrays) kernels for the hot device models. Each
// kernel holds the per-lane parameters in contiguous arrays and evaluates
// all active lanes of one netlist position in a single virtual call — no
// per-lane interface dispatch, Jacobian slots resolved once at batch
// construction instead of per stamp.
//
// Bit-equality contract (pinned by circuit's batch property test): every
// kernel replicates the corresponding scalar Eval's floating-point
// expressions operation for operation, so a batched lane is bit-identical
// to the scalar evaluation of the same corner.

// term is one device terminal: its node, and the per-lane state index when
// free (−1 for rails, whose voltage comes from the lane's rail waveform).
type term struct {
	n   circuit.NodeID
	idx int
}

func newTerm(lay *circuit.BatchLayout, n circuit.NodeID) term {
	return term{n: n, idx: lay.FreeIndex(n)}
}

func (t term) v(bc *circuit.BatchEvalContext, k, base int) float64 {
	if t.idx >= 0 {
		return bc.X[base+t.idx]
	}
	return bc.V(k, t.n)
}

// jadd accumulates into a resolved Jacobian slot, dropping rail positions
// (slot −1) exactly like EvalContext.AddJac.
func jadd(bc *circuit.BatchEvalContext, jbase, slot int, v float64) {
	if slot >= 0 {
		bc.JV[jbase+slot] += v
	}
}

// mosfetKernel evaluates K congruent MOSFETs. Terminal geometry (nodes,
// polarity) is shared; VT0/Beta/Lambda/SmoothVov/Mult vary per lane.
type mosfetKernel struct {
	d, g, s term
	pmos    bool
	vt0     []float64
	beta    []float64
	lambda  []float64
	smooth  []float64
	mult    []float64
	// slots[r*3+c]: row r ∈ {0:D, 1:S}, col c ∈ {0:D, 1:G, 2:S}. Both
	// source/drain-swap orientations stamp within this six-position stencil.
	slots [6]int
}

// MakeBatchKernel implements circuit.BatchKerneler.
func (m *MOSFET) MakeBatchKernel(peers []circuit.Device, lay *circuit.BatchLayout) (circuit.BatchKernel, error) {
	kn := &mosfetKernel{
		d: newTerm(lay, m.D), g: newTerm(lay, m.G), s: newTerm(lay, m.S),
		pmos:   m.PMOS,
		vt0:    make([]float64, len(peers)),
		beta:   make([]float64, len(peers)),
		lambda: make([]float64, len(peers)),
		smooth: make([]float64, len(peers)),
		mult:   make([]float64, len(peers)),
	}
	for k, p := range peers {
		pm, ok := p.(*MOSFET)
		if !ok {
			return nil, fmt.Errorf("lane %d is %T, want *MOSFET", k, p)
		}
		if pm.D != m.D || pm.G != m.G || pm.S != m.S || pm.PMOS != m.PMOS {
			return nil, fmt.Errorf("lane %d MOSFET terminals/polarity differ", k)
		}
		kn.vt0[k] = pm.Params.VT0
		kn.beta[k] = pm.Params.Beta
		kn.lambda[k] = pm.Params.Lambda
		kn.smooth[k] = pm.Params.SmoothVov
		kn.mult[k] = pm.Params.mult1(pm.Mult)
	}
	rows := [2]circuit.NodeID{m.D, m.S}
	cols := [3]circuit.NodeID{m.D, m.G, m.S}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			kn.slots[r*3+c] = lay.Slot(rows[r], cols[c])
		}
	}
	return kn, nil
}

// mult1 normalizes the parallel-device multiplier (0 means 1), matching the
// scalar Eval's defaulting.
func (MOSParams) mult1(m float64) float64 {
	if m == 0 {
		return 1
	}
	return m
}

func (kn *mosfetKernel) EvalLanes(bc *circuit.BatchEvalContext) {
	for _, k := range bc.Active {
		base := k * bc.N
		vd := kn.d.v(bc, k, base)
		vg := kn.g.v(bc, k, base)
		vs := kn.s.v(bc, k, base)
		sign := 1.0
		if kn.pmos {
			vd, vg, vs = -vd, -vg, -vs
			sign = -1
		}
		dIdx, sIdx := kn.d.idx, kn.s.idx
		swapped := false
		if vd < vs {
			vd, vs = vs, vd
			dIdx, sIdx = kn.s.idx, kn.d.idx
			swapped = true
		}
		vgs, vds := vg-vs, vd-vs

		// Inlined ids(): identical expressions to MOSFET.ids, including the
		// post-branch smoothing factor on gm.
		vov := vgs - kn.vt0[k]
		var id, gm, gds, dvov float64
		sm := kn.smooth[k]
		cut := false
		if sm > 0 {
			s := math.Sqrt(vov*vov + sm*sm)
			dvov = 0.5 * (1 + vov/s)
			vov = 0.5 * (vov + s)
		} else if vov <= 0 {
			cut = true
		}
		if !cut {
			beta, lambda := kn.beta[k], kn.lambda[k]
			clm := 1 + lambda*vds
			if vds < vov { // triode
				id = beta * (vov*vds - 0.5*vds*vds) * clm
				gm = beta * vds * clm
				gds = beta*(vov-vds)*clm + beta*(vov*vds-0.5*vds*vds)*lambda
			} else { // saturation
				id = 0.5 * beta * vov * vov * clm
				gm = beta * vov * clm
				gds = 0.5 * beta * vov * vov * lambda
			}
			if sm > 0 {
				gm *= dvov
			}
		}
		mult := kn.mult[k]
		id *= mult
		gm *= mult
		gds *= mult

		if dIdx >= 0 {
			bc.F[base+dIdx] += sign * id
		}
		if sIdx >= 0 {
			bc.F[base+sIdx] += -sign * id
		}
		if !bc.WantJacobian {
			continue
		}
		jb := k * bc.NNZ
		if !swapped {
			// rows (D, S) × cols (dNode=D, G, sNode=S)
			jadd(bc, jb, kn.slots[0], gds)
			jadd(bc, jb, kn.slots[1], gm)
			jadd(bc, jb, kn.slots[2], -(gm + gds))
			jadd(bc, jb, kn.slots[3], -gds)
			jadd(bc, jb, kn.slots[4], -gm)
			jadd(bc, jb, kn.slots[5], gm+gds)
		} else {
			// dNode is terminal S, sNode is terminal D: same stencil,
			// permuted roles.
			jadd(bc, jb, kn.slots[5], gds)
			jadd(bc, jb, kn.slots[4], gm)
			jadd(bc, jb, kn.slots[3], -(gm + gds))
			jadd(bc, jb, kn.slots[2], -gds)
			jadd(bc, jb, kn.slots[1], -gm)
			jadd(bc, jb, kn.slots[0], gm+gds)
		}
	}
}

// twoTermKernel evaluates K congruent linear two-terminal conductances
// (Resistor and Conductor share it; only the per-lane g differs).
type twoTermKernel struct {
	a, b   term
	g      []float64
	aa, ab int
	ba, bb int
}

func newTwoTermKernel(lay *circuit.BatchLayout, a, b circuit.NodeID, n int) *twoTermKernel {
	return &twoTermKernel{
		a: newTerm(lay, a), b: newTerm(lay, b),
		g:  make([]float64, n),
		aa: lay.Slot(a, a), ab: lay.Slot(a, b),
		ba: lay.Slot(b, a), bb: lay.Slot(b, b),
	}
}

func (kn *twoTermKernel) EvalLanes(bc *circuit.BatchEvalContext) {
	for _, k := range bc.Active {
		base := k * bc.N
		g := kn.g[k]
		i := g * (kn.a.v(bc, k, base) - kn.b.v(bc, k, base))
		if kn.a.idx >= 0 {
			bc.F[base+kn.a.idx] += i
		}
		if kn.b.idx >= 0 {
			bc.F[base+kn.b.idx] += -i
		}
		if !bc.WantJacobian {
			continue
		}
		jb := k * bc.NNZ
		jadd(bc, jb, kn.aa, g)
		jadd(bc, jb, kn.ab, -g)
		jadd(bc, jb, kn.ba, -g)
		jadd(bc, jb, kn.bb, g)
	}
}

// MakeBatchKernel implements circuit.BatchKerneler. The per-lane
// conductance is precomputed as 1/R — the same division the scalar Eval
// performs, so the value is bit-identical.
func (r *Resistor) MakeBatchKernel(peers []circuit.Device, lay *circuit.BatchLayout) (circuit.BatchKernel, error) {
	kn := newTwoTermKernel(lay, r.A, r.B, len(peers))
	for k, p := range peers {
		pr, ok := p.(*Resistor)
		if !ok {
			return nil, fmt.Errorf("lane %d is %T, want *Resistor", k, p)
		}
		if pr.A != r.A || pr.B != r.B {
			return nil, fmt.Errorf("lane %d Resistor terminals differ", k)
		}
		kn.g[k] = 1 / pr.R
	}
	return kn, nil
}

// MakeBatchKernel implements circuit.BatchKerneler.
func (c *Conductor) MakeBatchKernel(peers []circuit.Device, lay *circuit.BatchLayout) (circuit.BatchKernel, error) {
	kn := newTwoTermKernel(lay, c.A, c.B, len(peers))
	for k, p := range peers {
		pc, ok := p.(*Conductor)
		if !ok {
			return nil, fmt.Errorf("lane %d is %T, want *Conductor", k, p)
		}
		if pc.A != c.A || pc.B != c.B {
			return nil, fmt.Errorf("lane %d Conductor terminals differ", k)
		}
		kn.g[k] = pc.G
	}
	return kn, nil
}

// noopKernel is the batched Capacitor: all capacitance lives in the stamped
// C matrix; Eval contributes nothing.
type noopKernel struct{}

func (noopKernel) EvalLanes(*circuit.BatchEvalContext) {}

// MakeBatchKernel implements circuit.BatchKerneler.
func (c *Capacitor) MakeBatchKernel(peers []circuit.Device, lay *circuit.BatchLayout) (circuit.BatchKernel, error) {
	for k, p := range peers {
		pc, ok := p.(*Capacitor)
		if !ok {
			return nil, fmt.Errorf("lane %d is %T, want *Capacitor", k, p)
		}
		if pc.A != c.A || pc.B != c.B {
			return nil, fmt.Errorf("lane %d Capacitor terminals differ", k)
		}
	}
	return noopKernel{}, nil
}

// vccsKernel evaluates K congruent voltage-controlled current sources.
type vccsKernel struct {
	cp, cn, op, on term
	gm             []float64
	pp, pn, np, nn int
}

// MakeBatchKernel implements circuit.BatchKerneler.
func (v *VCCS) MakeBatchKernel(peers []circuit.Device, lay *circuit.BatchLayout) (circuit.BatchKernel, error) {
	kn := &vccsKernel{
		cp: newTerm(lay, v.CtrlP), cn: newTerm(lay, v.CtrlN),
		op: newTerm(lay, v.OutP), on: newTerm(lay, v.OutN),
		gm: make([]float64, len(peers)),
		pp: lay.Slot(v.OutP, v.CtrlP), pn: lay.Slot(v.OutP, v.CtrlN),
		np: lay.Slot(v.OutN, v.CtrlP), nn: lay.Slot(v.OutN, v.CtrlN),
	}
	for k, p := range peers {
		pv, ok := p.(*VCCS)
		if !ok {
			return nil, fmt.Errorf("lane %d is %T, want *VCCS", k, p)
		}
		if pv.CtrlP != v.CtrlP || pv.CtrlN != v.CtrlN || pv.OutP != v.OutP || pv.OutN != v.OutN {
			return nil, fmt.Errorf("lane %d VCCS terminals differ", k)
		}
		kn.gm[k] = pv.Gm
	}
	return kn, nil
}

func (kn *vccsKernel) EvalLanes(bc *circuit.BatchEvalContext) {
	for _, k := range bc.Active {
		base := k * bc.N
		gm := kn.gm[k]
		i := gm * (kn.cp.v(bc, k, base) - kn.cn.v(bc, k, base))
		if kn.op.idx >= 0 {
			bc.F[base+kn.op.idx] += i
		}
		if kn.on.idx >= 0 {
			bc.F[base+kn.on.idx] += -i
		}
		if !bc.WantJacobian {
			continue
		}
		jb := k * bc.NNZ
		jadd(bc, jb, kn.pp, gm)
		jadd(bc, jb, kn.pn, -gm)
		jadd(bc, jb, kn.np, -gm)
		jadd(bc, jb, kn.nn, gm)
	}
}
