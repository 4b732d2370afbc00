package device

import (
	"fmt"
	"math"
	"slices"

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

// summerKernel evaluates Summers: output and inputs are shared by a
// position's lanes; Mid, Swing, 1/Rout and the weights vary per lane.
type summerKernel struct {
	cells []summerCell
	ins   []summerIn // [j·K + k] for input j, over every position's inputs
	slots []int      // per position: (Out,Out), then (Out, input) per input
	k     int
}

// summerCell's inputs are inputs lo…hi−1 of ins; its slots start at slot.
type summerCell struct {
	out           term
	lo, hi, slot  int
	mid, swing, g float64
}

type summerIn struct {
	in term
	w  float64
}

// NewKernel implements circuit.Device. A summer whose inputs and weights
// differ in length is an error.
func (*Summer) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	n, nk, nin := p.Len(), lay.Lanes(), 0
	for i := 0; i < n; i++ {
		for k := 0; k < nk; k++ {
			if s := p.At(i, k).(*Summer); len(s.Inputs) != len(s.Weights) {
				return nil, fmt.Errorf("device %q: summer has %d inputs and %d weights", s.Label(), len(s.Inputs), len(s.Weights))
			}
		}
		nin += len(p.At(i, 0).(*Summer).Inputs)
	}
	kn := &summerKernel{cells: make([]summerCell, n*nk), ins: make([]summerIn, nin*nk), slots: lay.Slots(n + nin), k: nk}
	for i, lo := 0, 0; i < n; i++ {
		s := p.At(i, 0).(*Summer)
		hi, slot := lo+len(s.Inputs), lo+i
		kn.slots[slot] = lay.Slot(s.Out, s.Out)
		for j, in := range s.Inputs {
			kn.slots[slot+1+j] = lay.Slot(s.Out, in)
		}
		for k := 0; k < nk; k++ {
			ks := p.At(i, k).(*Summer)
			if ks.Out != s.Out || !slices.Equal(ks.Inputs, s.Inputs) {
				return nil, laneMismatch(ks, k, "terminals")
			}
			kn.cells[i*nk+k] = summerCell{term(s.Out), lo, hi, slot, ks.Mid, ks.Swing, 1 / ks.Rout}
			for j, w := range ks.Weights {
				kn.ins[(lo+j)*nk+k] = summerIn{term(s.Inputs[j]), w}
			}
		}
		lo = hi
	}
	return kn, nil
}

// Eval drives Out toward Vtarget through Rout; dvt/dVi = sech²(u/Swing)·wᵢ,
// so d(iOut)/dVi = −g·dvt/dVi.
func (kn *summerKernel) Eval(lo, hi int, e *circuit.EvalContext) {
	for i := lo; i < hi; i++ {
		for _, k := range e.Active {
			c, base := &kn.cells[i*kn.k+k], k*e.N
			u := 0.0
			for j := c.lo; j < c.hi; j++ {
				in := &kn.ins[j*kn.k+k]
				u += in.w * (in.in.v(e, k, base) - c.mid)
			}
			th := math.Tanh(u / c.swing)
			vt := c.mid + c.swing*th
			// Current out of Out node toward the (ideal) internal stage.
			c.out.add(e, base, c.g*(c.out.v(e, k, base)-vt))
			if !e.WantJacobian {
				continue
			}
			jb := k * e.NNZ
			jadd(e, jb, kn.slots[c.slot], c.g)
			sech2 := 1 - th*th
			for j := c.lo; j < c.hi; j++ {
				jadd(e, jb, kn.slots[c.slot+1+j-c.lo], -c.g*sech2*kn.ins[j*kn.k+k].w)
			}
		}
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

// tgateKernel evaluates transmission gates: terminals are shared by a
// position's lanes, the conductance law varies per lane. A gate whose
// control is a rail has a conductance that depends on time alone, so it
// lives in the lane's time memo; its control derivative stamps nowhere
// (the control column is a rail's), so only the conductance is kept.
type tgateKernel struct {
	cells []tgateCell
	slots []int // [i·6 …]: (A,A) (A,B) (B,A) (B,B) (A,Ctrl) (B,Ctrl)
	k     int
}

type tgateCell struct {
	a, b, ctrl term
	memo       int // time-memo entry of g, −1 for a free control
	law        tgateLaw
}

// tgateLaw holds the parameter-only terms of the conductance law: the
// logistic activation's centre and width between Voff and Von, and log(1/Roff)
// with the log-span to log(1/Ron). g is interpolated geometrically (log-space)
// between 1/Roff and 1/Ron so that both extremes are represented faithfully
// despite spanning ~8 decades.
type tgateLaw struct{ mid, width, lgOff, span float64 }

func (t *TransGate) law() tgateLaw {
	von, voff := t.Von, t.Voff
	if von == 0 && voff == 0 {
		von, voff = 2.0, 1.0
	}
	gOn, gOff := 1/t.Ron, 1/t.Roff
	lgOff := math.Log(gOff)
	// Logistic activation centred between Voff and Von, ~±4σ inside the band.
	return tgateLaw{mid: 0.5 * (von + voff), width: (von - voff) / 8, lgOff: lgOff, span: math.Log(gOn) - lgOff}
}

// conductance returns g(vc) and, when wantJ, dg/dvc.
func (l *tgateLaw) conductance(vc float64, wantJ bool) (g, dg float64) {
	a := 1 / (1 + math.Exp(-(vc-l.mid)/l.width))
	g = math.Exp(l.lgOff + a*l.span)
	if wantJ {
		da := a * (1 - a) / l.width
		dg = g * da * l.span
	}
	return g, dg
}

// NewKernel implements circuit.Device.
func (*TransGate) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	n, nk := p.Len(), lay.Lanes()
	kn := &tgateKernel{cells: make([]tgateCell, n*nk), slots: lay.Slots(6 * n), k: nk}
	for i := 0; i < n; i++ {
		t := p.At(i, 0).(*TransGate)
		memo := -1
		if !t.Ctrl.IsFree() {
			memo = lay.Memo(1)
		}
		sl := kn.slots[6*i : 6*i+6]
		sl[0], sl[1], sl[2], sl[3] = lay.Slot(t.A, t.A), lay.Slot(t.A, t.B), lay.Slot(t.B, t.A), lay.Slot(t.B, t.B)
		sl[4], sl[5] = lay.Slot(t.A, t.Ctrl), lay.Slot(t.B, t.Ctrl)
		for k := 0; k < nk; k++ {
			kt := p.At(i, k).(*TransGate)
			if kt.A != t.A || kt.B != t.B || kt.Ctrl != t.Ctrl {
				return nil, laneMismatch(kt, k, "terminals")
			}
			kn.cells[i*nk+k] = tgateCell{term(t.A), term(t.B), term(t.Ctrl), memo, kt.law()}
		}
	}
	return kn, nil
}

func (kn *tgateKernel) Eval(lo, hi int, e *circuit.EvalContext) {
	for i := lo; i < hi; i++ {
		sl := kn.slots[6*i : 6*i+6]
		for _, k := range e.Active {
			c, base := &kn.cells[i*kn.k+k], k*e.N
			var g, dg float64
			if c.memo >= 0 {
				m := e.Memo(k)
				if g = m[c.memo]; g != g {
					g, _ = c.law.conductance(c.ctrl.v(e, k, base), false)
					m[c.memo] = g
				}
			} else {
				g, dg = c.law.conductance(c.ctrl.v(e, k, base), e.WantJacobian)
			}
			vab := c.a.v(e, k, base) - c.b.v(e, k, base)
			cur := g * vab
			c.a.add(e, base, cur)
			c.b.add(e, base, -cur)
			if !e.WantJacobian {
				continue
			}
			jb := k * e.NNZ
			jadd(e, jb, sl[0], g)
			jadd(e, jb, sl[1], -g)
			jadd(e, jb, sl[2], -g)
			jadd(e, jb, sl[3], g)
			// Control dependence.
			jadd(e, jb, sl[4], dg*vab)
			jadd(e, jb, sl[5], -dg*vab)
		}
	}
}
