package device

import (
	"fmt"

	"repro/internal/circuit"
)

// Every device type evaluates through one kernel (circuit.Kernel) per plan.
// A kernel keeps one cell per position and lane, indexed [i·K + k] for
// position i and lane k, holding the position's terminals (shared by its
// lanes) and the lane's parameters, plus a slot table with the Jacobian
// slots resolved once. Kernels loop positions outermost and lanes
// innermost, and replicate the reference stamps' floating-point
// expressions operation for operation, so each lane is bit-identical to
// the reference evaluation of its own circuit (pinned in oracle_test.go).
// An evaluation without the Jacobian skips Jacobian-only arithmetic.

// term is one device terminal: a free node's state index, or a rail, whose
// voltage is read through the lane's time memo.
type term circuit.NodeID

// v returns the terminal voltage in lane k, whose state starts at base.
func (t term) v(e *circuit.EvalContext, k, base int) float64 {
	if t >= 0 {
		return e.X[base+int(t)]
	}
	return e.V(k, circuit.NodeID(t))
}

// add accumulates a current out of the terminal's node in lane k.
func (t term) add(e *circuit.EvalContext, base int, i float64) {
	if t >= 0 {
		e.F[base+int(t)] += i
	}
}

// jadd accumulates into a resolved Jacobian slot, dropping rail positions
// (slot −1).
func jadd(e *circuit.EvalContext, jbase, slot int, v float64) {
	if slot >= 0 {
		e.JV[jbase+slot] += v
	}
}

// laneMismatch reports a lane whose device differs from lane 0's in what a
// kernel shares across lanes.
func laneMismatch(d circuit.Device, k int, what string) error {
	return fmt.Errorf("device %q: lane %d %s differ from lane 0", d.Label(), k, what)
}

// linearKernel evaluates linear voltage-controlled current sources: a
// current gm·(V(cp) − V(cn)) out of op and into on. Resistors and
// conductors are the case cp = op, cn = on with gm = 1/R or G.
type linearKernel struct {
	cells []linearCell
	slots []int // [i·4 …]: (op,cp) (op,cn) (on,cp) (on,cn)
	k     int
}

type linearCell struct {
	cp, cn, op, on term
	gm             float64
}

// linearOf returns a linear device's cell; 1/R is the division the
// reference stamp performs.
func linearOf(d circuit.Device) linearCell {
	switch d := d.(type) {
	case *Resistor:
		return linearCell{term(d.A), term(d.B), term(d.A), term(d.B), 1 / d.R}
	case *Conductor:
		return linearCell{term(d.A), term(d.B), term(d.A), term(d.B), d.G}
	default:
		v := d.(*VCCS)
		return linearCell{term(v.CtrlP), term(v.CtrlN), term(v.OutP), term(v.OutN), v.Gm}
	}
}

func newLinearKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	n, nk := p.Len(), lay.Lanes()
	kn := &linearKernel{cells: make([]linearCell, n*nk), slots: lay.Slots(4 * n), k: nk}
	for i := 0; i < n; i++ {
		c := linearOf(p.At(i, 0))
		cp, cn, op, on := circuit.NodeID(c.cp), circuit.NodeID(c.cn), circuit.NodeID(c.op), circuit.NodeID(c.on)
		sl := kn.slots[4*i : 4*i+4]
		sl[0], sl[1], sl[2], sl[3] = lay.Slot(op, cp), lay.Slot(op, cn), lay.Slot(on, cp), lay.Slot(on, cn)
		for k := 0; k < nk; k++ {
			d := p.At(i, k)
			kc := linearOf(d)
			if kc.cp != c.cp || kc.cn != c.cn || kc.op != c.op || kc.on != c.on {
				return nil, laneMismatch(d, k, "terminals")
			}
			kn.cells[i*nk+k] = kc
		}
	}
	return kn, nil
}

func (kn *linearKernel) Eval(lo, hi int, e *circuit.EvalContext) {
	for i := lo; i < hi; i++ {
		sl := kn.slots[4*i : 4*i+4]
		for _, k := range e.Active {
			c, base := &kn.cells[i*kn.k+k], k*e.N
			cur := c.gm * (c.cp.v(e, k, base) - c.cn.v(e, k, base))
			c.op.add(e, base, cur)
			c.on.add(e, base, -cur)
			if !e.WantJacobian {
				continue
			}
			jb := k * e.NNZ
			jadd(e, jb, sl[0], c.gm)
			jadd(e, jb, sl[1], -c.gm)
			jadd(e, jb, sl[2], -c.gm)
			jadd(e, jb, sl[3], c.gm)
		}
	}
}
