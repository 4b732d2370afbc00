package circuit_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
)

// TestSineMatchesClosedForm: Sine.V is Amp·cos(2π(Freq·t + φ)) + Offset bit
// for bit, φ stepping by half a cycle at each flip — the value the SYNC and
// D sources of the latch circuits are pinned to.
func TestSineMatchesClosedForm(t *testing.T) {
	s := &circuit.Sine{Amp: 1e-4, Freq: 19.2e3, Phase: 0.137, Offset: 3e-6, Flips: []float64{2e-4, 5e-4}}
	for i := 0; i < 1000; i++ {
		tt := float64(i) * 7.3e-7
		ph := s.Phase
		if tt >= 2e-4 && tt < 5e-4 {
			ph = s.Phase + 0.5
		}
		want := s.Amp*math.Cos(2*math.Pi*(s.Freq*tt+ph)) + s.Offset
		if got := s.V(tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("V(%g) = %v, closed form %v", tt, got, want)
		}
	}
}

// TestPulseWaveform pins the SPICE pulse's value and slope on each segment.
func TestPulseWaveform(t *testing.T) {
	p := &circuit.Pulse{V1: 0, V2: 3, Delay: 1e-3, Rise: 1e-4, Fall: 1e-4, Width: 2e-3, Period: 5e-3}
	for _, c := range []struct{ t, v, d float64 }{
		{0, 0, 0},            // before delay
		{1.05e-3, 1.5, 3e4},  // mid-rise
		{2e-3, 3, 0},         // plateau
		{3.15e-3, 1.5, -3e4}, // mid-fall
		{4e-3, 0, 0},         // low
		{6.05e-3, 1.5, 3e4},  // second period mid-rise
	} {
		if v, d := p.V(c.t), p.DVDt(c.t); math.Abs(v-c.v) > 1e-9 || math.Abs(d-c.d) > 1e-6 {
			t.Errorf("pulse(%g) = %g, slope %g; want %g, %g", c.t, v, d, c.v, c.d)
		}
	}
}

// TestWaveformSlopesMatchCentralDifference: every kind's dV/dt matches a
// central difference of its V to 1e-6 of its peak slope, away from the
// pulse's corners and the sine's phase steps.
func TestWaveformSlopesMatchCentralDifference(t *testing.T) {
	const P = 1e-3
	pulse := &circuit.Pulse{V1: 0.2, V2: 3, Delay: 0.1 * P, Rise: 0.05 * P, Fall: 0.1 * P, Width: 0.2 * P, Period: 0.5 * P}
	var pulseCorners []float64
	for k := 0.0; k < 4; k++ {
		start := pulse.Delay + k*pulse.Period
		pulseCorners = append(pulseCorners, start, start+pulse.Rise, start+pulse.Rise+pulse.Width,
			start+pulse.Rise+pulse.Width+pulse.Fall)
	}
	for _, c := range []struct {
		name  string
		w     circuit.Waveform
		peak  float64 // peak |dV/dt|
		kinks []float64
	}{
		{"dc", circuit.DC(1.5), 1, nil},
		{"sine", &circuit.Sine{Amp: 0.5, Freq: 3 / P, Phase: 0.1, Offset: 1.5, Flips: []float64{0.3 * P, 0.71 * P}},
			2 * math.Pi * 3 / P * 0.5, []float64{0.3 * P, 0.71 * P}},
		{"pulse", pulse, 2.8 / pulse.Rise, pulseCorners},
		{"clock", &circuit.Clock{Period: P, High: 3}, 3 / (0.02 * P), nil},
		{"clock inverted", &circuit.Clock{Period: P, High: 3, Inverted: true}, 3 / (0.02 * P), nil},
	} {
		const h = 1e-6 * P
		for i := 0; i <= 2000; i++ {
			tt := float64(i) * 1e-3 * P
			near := false
			for _, k := range c.kinks {
				near = near || math.Abs(tt-k) < 2*h
			}
			if near {
				continue
			}
			fd := (c.w.V(tt+h) - c.w.V(tt-h)) / (2 * h)
			if d := c.w.DVDt(tt); math.Abs(d-fd) > 1e-6*c.peak {
				t.Errorf("%s: dV/dt(%g) = %g, central difference %g", c.name, tt, d, fd)
				break
			}
		}
	}
}

// TestClockContinuousAtPeriodBoundaries: the clock and its complement are
// continuous at every t = kP — the jump over ±εP shrinks with ε, at the
// edge's slope — where a clock whose rising edge is cut at kP would jump by
// half its height whatever ε.
func TestClockContinuousAtPeriodBoundaries(t *testing.T) {
	const P = 150 / 9.6e3
	for _, c := range []circuit.Clock{{Period: P, High: 3}, {Period: P, High: 3, Inverted: true}} {
		for k := 1.0; k <= 3; k++ {
			for _, eps := range []float64{1e-6, 1e-8, 1e-10} {
				jump := math.Abs(c.V(k*P+eps*P) - c.V(k*P-eps*P))
				// The edge's peak slope is High/(0.02·P).
				if bound := 1.01 * 2 * eps * P * c.High / (0.02 * P); jump > bound {
					t.Errorf("%+v: jump at %g·P over ±%g·P = %g V, want ≤ %g", c, k, eps, jump, bound)
				}
			}
		}
	}
}
