package device

import "repro/internal/circuit"

// CurrentSource drives the current of its waveform from node From, through
// the source, into node To (i.e. the current leaves From and enters To).
// Honors source-stepping via EvalContext.SourceScale. Evaluation memoizes
// the waveform per time point (the rail contract, see circuit.Rail).
type CurrentSource struct {
	Name     string
	From, To circuit.NodeID
	Wave     circuit.Waveform
}

// Label implements circuit.Device.
func (s *CurrentSource) Label() string { return s.Name }

// StampC implements circuit.Device.
func (s *CurrentSource) StampC(*circuit.CapStamper) {}

// Waveform implements circuit.Source.
func (s *CurrentSource) Waveform() circuit.Waveform { return s.Wave }

// NewKernel implements circuit.Device.
func (*CurrentSource) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	return newSourceKernel(p, lay)
}

// DCCurrent builds a constant current source.
func DCCurrent(name string, from, to circuit.NodeID, amps float64) *CurrentSource {
	return &CurrentSource{Name: name, From: from, To: to, Wave: circuit.DC(amps)}
}

// sourceKernel evaluates independent current sources. A source's value
// depends on the lane's time alone, so it lives in the lane's time memo
// and its waveform runs once per time point; source stepping scales it
// after the memo.
type sourceKernel struct {
	cells []sourceCell
	k     int
}

type sourceCell struct {
	from, to term
	memo     int
	wave     circuit.Waveform
}

func newSourceKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	n, nk := p.Len(), lay.Lanes()
	kn := &sourceKernel{cells: make([]sourceCell, n*nk), k: nk}
	for i := 0; i < n; i++ {
		s0 := p.At(i, 0).(*CurrentSource)
		memo := lay.Memo(1)
		for k := 0; k < nk; k++ {
			s := p.At(i, k).(*CurrentSource)
			if s.From != s0.From || s.To != s0.To {
				return nil, laneMismatch(s, k, "terminals")
			}
			kn.cells[i*nk+k] = sourceCell{term(s.From), term(s.To), memo, s.Wave}
		}
	}
	return kn, nil
}

func (kn *sourceKernel) Eval(lo, hi int, e *circuit.EvalContext) {
	for i := lo; i < hi; i++ {
		for _, k := range e.Active {
			c, m := &kn.cells[i*kn.k+k], e.Memo(k)
			v := m[c.memo]
			if v != v {
				v = c.wave.V(e.T(k))
				m[c.memo] = v
			}
			cur := v * e.SourceScale
			base := k * e.N
			c.from.add(e, base, cur)
			c.to.add(e, base, -cur)
		}
	}
}
