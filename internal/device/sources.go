package device

import (
	"math"

	"repro/internal/circuit"
)

// CurrentSource drives a time-dependent current I(t) from node From, through
// the source, into node To (i.e. I(t) leaves From and enters To). Honors
// source-stepping via EvalContext.SourceScale. I must be a pure function of
// t, fixed once the circuit is assembled: evaluation memoizes it per time
// point (the rail contract, see circuit.Rail).
type CurrentSource struct {
	Name     string
	From, To circuit.NodeID
	I        func(t float64) float64
}

// Label implements circuit.Device.
func (s *CurrentSource) Label() string { return s.Name }

// StampC implements circuit.Device.
func (s *CurrentSource) StampC(*circuit.CapStamper) {}

// At evaluates the source current at time t.
func (s *CurrentSource) At(t float64) float64 { return s.I(t) }

// NewKernel implements circuit.Device.
func (*CurrentSource) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	return newSourceKernel(p, lay)
}

// DCCurrent builds a constant current source.
func DCCurrent(name string, from, to circuit.NodeID, amps float64) *CurrentSource {
	return &CurrentSource{Name: name, From: from, To: to, I: func(float64) float64 { return amps }}
}

// SineCurrent builds I(t) = Amp·cos(2π·(Freq·t + Phase)) + Offset, flowing
// from From into To. Phase is in cycles, matching the paper's normalized
// phase convention.
type SineCurrent struct {
	Name     string
	From, To circuit.NodeID
	Amp      float64
	Freq     float64
	Phase    float64 // cycles
	Offset   float64
}

// Label implements circuit.Device.
func (s *SineCurrent) Label() string { return s.Name }

// StampC implements circuit.Device.
func (s *SineCurrent) StampC(*circuit.CapStamper) {}

// At evaluates the source current at time t.
func (s *SineCurrent) At(t float64) float64 {
	return s.Amp*math.Cos(2*math.Pi*(s.Freq*t+s.Phase)) + s.Offset
}

// NewKernel implements circuit.Device.
func (*SineCurrent) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	return newSourceKernel(p, lay)
}

// PWLCurrent is a piecewise-linear current source defined by (time, value)
// breakpoints; it holds the first/last value outside the breakpoint range.
type PWLCurrent struct {
	Name     string
	From, To circuit.NodeID
	Times    []float64
	Values   []float64
}

// Label implements circuit.Device.
func (s *PWLCurrent) Label() string { return s.Name }

// StampC implements circuit.Device.
func (s *PWLCurrent) StampC(*circuit.CapStamper) {}

// At evaluates the PWL waveform at time t.
func (s *PWLCurrent) At(t float64) float64 {
	n := len(s.Times)
	if n == 0 {
		return 0
	}
	if t <= s.Times[0] {
		return s.Values[0]
	}
	if t >= s.Times[n-1] {
		return s.Values[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.Times[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (t - s.Times[lo]) / (s.Times[hi] - s.Times[lo])
	return s.Values[lo] + frac*(s.Values[hi]-s.Values[lo])
}

// NewKernel implements circuit.Device.
func (*PWLCurrent) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	return newSourceKernel(p, lay)
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
	wave     waveform
}

// waveform is a source's current as a function of time.
type waveform interface{ At(t float64) float64 }

func sourceTerminals(d circuit.Device) (from, to circuit.NodeID) {
	switch d := d.(type) {
	case *CurrentSource:
		return d.From, d.To
	case *SineCurrent:
		return d.From, d.To
	default:
		s := d.(*PWLCurrent)
		return s.From, s.To
	}
}

func newSourceKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	n, nk := p.Len(), lay.Lanes()
	kn := &sourceKernel{cells: make([]sourceCell, n*nk), k: nk}
	for i := 0; i < n; i++ {
		from, to := sourceTerminals(p.At(i, 0))
		memo := lay.Memo(1)
		for k := 0; k < nk; k++ {
			d := p.At(i, k)
			if kf, kt := sourceTerminals(d); kf != from || kt != to {
				return nil, laneMismatch(d, k, "terminals")
			}
			kn.cells[i*nk+k] = sourceCell{term(from), term(to), memo, d.(waveform)}
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
				v = c.wave.At(e.T(k))
				m[c.memo] = v
			}
			cur := v * e.SourceScale
			base := k * e.N
			c.from.add(e, base, cur)
			c.to.add(e, base, -cur)
		}
	}
}

// PulseFunc returns a SPICE-style pulse waveform function. Times are in
// seconds; the pulse goes v1 → v2 with the given delay, rise/fall, width and
// period (period 0 means a single pulse).
func PulseFunc(v1, v2, delay, rise, fall, width, period float64) func(t float64) float64 {
	return func(t float64) float64 {
		tt := t - delay
		if tt < 0 {
			return v1
		}
		if period > 0 {
			tt = math.Mod(tt, period)
		}
		switch {
		case tt < rise:
			return v1 + (v2-v1)*tt/rise
		case tt < rise+width:
			return v2
		case tt < rise+width+fall:
			return v2 + (v1-v2)*(tt-rise-width)/fall
		default:
			return v1
		}
	}
}
