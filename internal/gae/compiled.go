package gae

import (
	"math"
	"math/cmplx"
)

// CompiledG is a Model's g(Δφ) with every per-injection quantity hoisted out
// of the evaluation: the PPV harmonic pick-off (`P.Harmonic(node, m)`), the
// injection phase rotation e^{−j2πψ}, and the amplitude scaling all happen
// once, at compile time, by folding every injection into one complex
// coefficient per harmonic:
//
//	g(Δφ) = c₀ + Σ_m  Re[K_m · e^{j2πmΔφ}],   K_m = Σ_{inj at m} A·V_m·e^{−j2πψ}
//
// (negative-harmonic injections fold into K_{|m|} by the reality condition,
// zero-harmonic ones into the constant c₀). Evaluation then needs a single
// math.Sincos of θ = 2πΔφ regardless of how many injections the model has:
// cos(mθ)/sin(mθ) follow by the angle-addition recurrence. It is the one
// evaluation of g: Model.G, GPrime and RHS, the sweeps and the transients
// all run it, and the stochastic lanes of package noise sweep it over SoA
// arrays.
//
// The folding changes the floating-point expression tree, so CompiledG
// agrees with the injection-by-injection sum of the package doc to ≤1e-14
// of the coefficient scale (property-tested against that sum), not bit for
// bit.
//
// A CompiledG is immutable and safe for concurrent use by any number of
// goroutines, provided the captured ExtraG (if any) is itself safe for
// concurrent calls.
type CompiledG struct {
	// F0 and F1 mirror the source model's oscillator and reference
	// frequencies; det = F0 − F1 is the deterministic detuning term of the
	// GAE right-hand side.
	F0, F1 float64
	det    float64
	c0     float64 // constant (harmonic-0) contribution to g
	// re[m-1], im[m-1] hold K_m for m = 1..len(re). Harmonics with no
	// injection hold zeros; the dense recurrence multiplies through them,
	// which for the shallow harmonic stacks of phase logic (SYNC at 2,
	// inputs at 1) is cheaper than branching.
	re, im []float64
	extra  func(dphi float64) float64
}

// Compile folds the model's injections into a CompiledG. The PPV and
// injection set are captured by value at compile time: later mutations of
// the Model are not reflected.
func (m *Model) Compile() *CompiledG {
	c := &CompiledG{F0: m.P.F0, F1: m.F1, det: m.P.F0 - m.F1, extra: m.ExtraG}
	maxH := 0
	for _, in := range m.Injections {
		if in.Amp == 0 {
			continue
		}
		h := in.Harmonic
		if h < 0 {
			h = -h
		}
		if h > maxH {
			maxH = h
		}
	}
	c.re = make([]float64, maxH)
	c.im = make([]float64, maxH)
	for _, in := range m.Injections {
		if in.Amp == 0 {
			continue
		}
		k := complex(in.Amp, 0) * m.P.Harmonic(in.Node, in.Harmonic) *
			cmplx.Exp(complex(0, -2*math.Pi*in.Phase))
		h := in.Harmonic
		if h < 0 {
			// Re[K·e^{j2πmΔφ}] = Re[conj(K)·e^{j2π|m|Δφ}] for m < 0.
			k = cmplx.Conj(k)
			h = -h
		}
		if h == 0 {
			c.c0 += real(k)
			continue
		}
		c.re[h-1] += real(k)
		c.im[h-1] += imag(k)
	}
	return c
}

// gAt is the single evaluation kernel shared by every public entry point, so
// G, RHS, EvalInto and RHSBatch are bit-identical per lane by construction.
func (c *CompiledG) gAt(dphi float64) float64 {
	g := c.c0
	if len(c.re) > 0 {
		sn, cs := math.Sincos(2 * math.Pi * dphi)
		cm, sm := cs, sn // cos(mθ), sin(mθ) for m = 1
		g += c.re[0]*cm - c.im[0]*sm
		for m := 1; m < len(c.re); m++ {
			cm, sm = cm*cs-sm*sn, sm*cs+cm*sn
			g += c.re[m]*cm - c.im[m]*sm
		}
	}
	if c.extra != nil {
		g += c.extra(dphi)
	}
	return g
}

// G evaluates g(Δφ).
func (c *CompiledG) G(dphi float64) float64 { return c.gAt(dphi) }

// GPrime evaluates dg/dΔφ. The ExtraG term is differentiated by a central
// difference of step 1e-6 cycles.
func (c *CompiledG) GPrime(dphi float64) float64 {
	s := 0.0
	if len(c.re) > 0 {
		sn, cs := math.Sincos(2 * math.Pi * dphi)
		cm, sm := cs, sn
		s += -2 * math.Pi * (c.re[0]*sm + c.im[0]*cm)
		for m := 1; m < len(c.re); m++ {
			cm, sm = cm*cs-sm*sn, sm*cs+cm*sn
			s += -2 * math.Pi * float64(m+1) * (c.re[m]*sm + c.im[m]*cm)
		}
	}
	if c.extra != nil {
		const h = 1e-6
		s += (c.extra(dphi+h) - c.extra(dphi-h)) / (2 * h)
	}
	return s
}

// RHS evaluates the GAE right-hand side dΔφ/dt = (f0 − f1) + f0·g(Δφ).
func (c *CompiledG) RHS(dphi float64) float64 {
	return c.det + c.F0*c.gAt(dphi)
}

// EvalInto evaluates g for every lane: g[l] = g(dphi[l]). The slices must
// have equal length and may not alias in a way that changes dphi mid-call
// (g == dphi is allowed — each lane is read before it is written).
func (c *CompiledG) EvalInto(dphi, g []float64) {
	for l := range dphi {
		g[l] = c.gAt(dphi[l])
	}
}

// RHSBatch evaluates the full right-hand side for every lane into dst.
func (c *CompiledG) RHSBatch(dphi, dst []float64) {
	for l := range dphi {
		dst[l] = c.det + c.F0*c.gAt(dphi[l])
	}
}

// MaxHarmonic returns the highest folded harmonic (0 when g is constant).
func (c *CompiledG) MaxHarmonic() int { return len(c.re) }
