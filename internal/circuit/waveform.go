package circuit

import "math"

// Waveform is a prescribed function of time: a rail's potential or a
// current source's current, with its exact time derivative. V and DVDt
// must be pure functions of t, fixed once the circuit is assembled (the
// rail contract, see Rail). The kinds are DC, *Sine, *Pulse and *Clock;
// any other implementation is accepted as well.
type Waveform interface {
	V(t float64) float64
	DVDt(t float64) float64
}

// DC is a constant waveform, the one kind System.Driven treats as constant.
type DC float64

// V implements Waveform.
func (d DC) V(float64) float64 { return float64(d) }

// DVDt implements Waveform.
func (DC) DVDt(float64) float64 { return 0 }

// Sine is Amp·cos(2π(Freq·t + φ)) + Offset with φ in cycles: φ is Phase,
// stepped by half a cycle at every time in Flips (ascending) that t has
// reached. The steps carry a phase-encoded bit stream (logic 1 at one
// phase, logic 0 half a cycle away) or a latch experiment's D flip.
type Sine struct {
	Amp, Freq, Phase, Offset float64
	Flips                    []float64
}

// phase is φ at t.
func (s *Sine) phase(t float64) float64 {
	odd := false
	for _, f := range s.Flips {
		if t < f {
			break
		}
		odd = !odd
	}
	if odd {
		return s.Phase + 0.5
	}
	return s.Phase
}

// V implements Waveform.
func (s *Sine) V(t float64) float64 {
	return s.Amp*math.Cos(2*math.Pi*(s.Freq*t+s.phase(t))) + s.Offset
}

// DVDt implements Waveform; a phase step has no derivative of its own.
func (s *Sine) DVDt(t float64) float64 {
	return -2 * math.Pi * s.Freq * s.Amp * math.Sin(2*math.Pi*(s.Freq*t+s.phase(t)))
}

// Pulse is SPICE's PULSE(V1 V2 Delay Rise Fall Width Period): V1 until
// Delay, a linear rise to V2 over Rise, V2 for Width, a linear fall back
// over Fall, then V1 for the rest of Period; Period 0 is a single pulse.
type Pulse struct {
	V1, V2, Delay, Rise, Fall, Width, Period float64
}

// at returns the pulse's value and slope at t.
func (p *Pulse) at(t float64) (v, dvdt float64) {
	tt := t - p.Delay
	if tt < 0 {
		return p.V1, 0
	}
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		return p.V1 + (p.V2-p.V1)*tt/p.Rise, (p.V2 - p.V1) / p.Rise
	case tt < p.Rise+p.Width:
		return p.V2, 0
	case tt < p.Rise+p.Width+p.Fall:
		return p.V2 + (p.V1-p.V2)*(tt-p.Rise-p.Width)/p.Fall, (p.V1 - p.V2) / p.Fall
	default:
		return p.V1, 0
	}
}

// V implements Waveform.
func (p *Pulse) V(t float64) float64 { v, _ := p.at(t); return v }

// DVDt implements Waveform; at a corner it is the slope of the segment t
// starts.
func (p *Pulse) DVDt(t float64) float64 { _, d := p.at(t); return d }

// Clock is the master–slave latches' clock rail: High·ClockLevel(t,
// Period), or High·(1 − ClockLevel(t, Period)) when Inverted.
type Clock struct {
	Period, High float64
	Inverted     bool
}

// V implements Waveform.
func (c *Clock) V(t float64) float64 {
	l := ClockLevel(t, c.Period)
	if c.Inverted {
		l = 1 - l
	}
	return c.High * l
}

// DVDt implements Waveform.
func (c *Clock) DVDt(t float64) float64 {
	d := c.High * clockSlope(t, c.Period)
	if c.Inverted {
		return -d
	}
	return d
}

// clockEdge is the width of each clock edge as a fraction of the period:
// a smooth edge keeps the transmission gates' drive and the macromodel
// enables differentiable (physically, a gate's finite transition).
const clockEdge = 0.02

// ClockLevel is the clock as a 0..1 level: high on the first half of each
// period, low on the second, with a tanh edge at each switch. Within a
// period it is the sum of three edges — the rise at 0, the fall at P/2 and
// the next period's rise at P — so each rise is whole and the level is
// continuous across every period boundary.
func ClockLevel(t, period float64) float64 {
	tt, w := clockTime(t, period)
	return ramp(tt, w) - ramp(tt-period/2, w) + ramp(tt-period, w)
}

// clockSlope is ClockLevel's time derivative.
func clockSlope(t, period float64) float64 {
	tt, w := clockTime(t, period)
	return rampSlope(tt, w) - rampSlope(tt-period/2, w) + rampSlope(tt-period, w)
}

// clockTime wraps t into [0, period) and returns it with the edge width.
func clockTime(t, period float64) (tt, w float64) {
	tt = math.Mod(t, period)
	if tt < 0 {
		tt += period
	}
	return tt, clockEdge * period
}

// ramp is a smooth 0→1 step of width w centred at x = 0.
func ramp(x, w float64) float64 { return 0.5 * (1 + math.Tanh(2*x/w)) }

// rampSlope is ramp's derivative in x.
func rampSlope(x, w float64) float64 {
	th := math.Tanh(2 * x / w)
	return (1 - th*th) / w
}
