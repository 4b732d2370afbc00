// Package gae implements Generalized Adlerization (the paper's Sec. 3,
// eq. 4–5): reducing an oscillator-with-injections to the scalar averaged
// phase ODE
//
//	dΔφ/dt = (f0 − f1) + f0·g(Δφ)
//
// where Δφ is the phase difference (in cycles) between the oscillator and a
// reference running at f1, and g collects one term per sinusoidal current
// injection. For an injection A·cos(2π(m·f1·t + ψ)) into node k, averaging
// keeps only the m-th harmonic of that node's PPV:
//
//	g(Δφ) += A·Re[ V_m⁽ᵏ⁾ · e^{ j2π(mΔφ − ψ) } ]
//
// SYNC injections at m = 2 create the bistable sub-harmonic locks that store
// a phase-logic bit; logic inputs at m = 1 bias one lock over the other.
//
// Equilibria of the GAE — the intersections the paper plots in Figs. 5 and
// 10 — predict injection locking: a solution Δφ* of
// (f1−f0)/f0 = g(Δφ*) with g′(Δφ*) < 0 is a stable lock (Lyapunov, scalar
// case). On top of the equilibrium machinery this package provides the
// sweeps behind Figs. 7, 8, 11 and 14 and the transient solver behind
// Figs. 12 and 16/17.
package gae

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/ppv"
)

// Injection is one sinusoidal current injected into an oscillator node:
//
//	I(t) = Amp · cos(2π(Harmonic·f1·t + Phase))    [A]
//
// Phase is in cycles. SYNC uses Harmonic = 2 (paper: ISYNC = A·cos(2π·2f1·t));
// phase-encoded logic inputs use Harmonic = 1.
type Injection struct {
	Name     string
	Node     int
	Amp      float64
	Harmonic int
	Phase    float64
}

// Model is the Generalized Adler Equation of one oscillator under a set of
// injections, referenced to frequency f1.
type Model struct {
	P          *ppv.PPV
	F1         float64
	Injections []Injection
	// ExtraG, when non-nil, adds a custom Δφ-dependent term to g — used for
	// self-consistent feedback structures such as the SR latch's majority
	// gate (the feedback input's phasor depends on the latch's own phase).
	ExtraG func(dphi float64) float64
}

// NewModel builds a GAE around the PPV p with reference frequency f1.
func NewModel(p *ppv.PPV, f1 float64, inj ...Injection) *Model {
	return &Model{P: p, F1: f1, Injections: inj}
}

// With returns a copy of the model with additional injections.
func (m *Model) With(inj ...Injection) *Model {
	out := *m
	out.Injections = append(append([]Injection(nil), m.Injections...), inj...)
	return &out
}

// Detune returns (f1 − f0)/f0, the left-hand side of the lock equation (5).
func (m *Model) Detune() float64 { return (m.F1 - m.P.F0) / m.P.F0 }

// G evaluates g(Δφ) on the folded kernel (Compile). A caller evaluating
// many points compiles once and evaluates the CompiledG.
func (m *Model) G(dphi float64) float64 { return m.Compile().G(dphi) }

// GPrime evaluates dg/dΔφ on the folded kernel.
func (m *Model) GPrime(dphi float64) float64 { return m.Compile().GPrime(dphi) }

// RHS evaluates the full GAE right-hand side dΔφ/dt (per second).
func (m *Model) RHS(dphi float64) float64 { return m.Compile().RHS(dphi) }

// GRange returns the extrema of g over [0, 1).
func (m *Model) GRange() (gmin, gmax float64) {
	// One dense scan locates both extremum cells; golden-section then refines
	// each around its best sample. The strict first-winner comparisons make
	// the located cells — and hence the refined extrema — independent of how
	// many scans are folded together.
	const n = 720
	c := m.Compile()
	iMin, iMax := 0, 0
	vMin, vMax := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		g := c.G(float64(i) / n)
		if g < vMin {
			vMin, iMin = g, i
		}
		if g > vMax {
			vMax, iMax = g, i
		}
	}
	refine := func(sign, best float64) float64 {
		lo, hi := best-1.0/n, best+1.0/n
		for i := 0; i < 50; i++ {
			m1 := lo + (hi-lo)*0.382
			m2 := lo + (hi-lo)*0.618
			if sign*c.G(m1) > sign*c.G(m2) {
				hi = m2
			} else {
				lo = m1
			}
		}
		return sign * c.G((lo+hi)/2)
	}
	return -refine(-1, float64(iMin)/n), refine(1, float64(iMax)/n)
}

// Equilibrium is a solution of (f1−f0)/f0 = g(Δφ*).
type Equilibrium struct {
	Dphi   float64 // in [0, 1)
	Stable bool    // g′(Δφ*) < 0
	GPrime float64
}

// Equilibria finds all equilibria of the GAE in [0, 1) by dense scanning
// followed by bisection. The scan wraps around the 0/1 boundary — calibrated
// latches place lock phases exactly at 0 and ½, so boundary roots are the
// common case, not the corner case. An empty result means no lock (SHIL/IL
// will not happen at this drive and detuning).
func (m *Model) Equilibria() []Equilibrium {
	const n = 1440
	target := m.Detune()
	c := m.Compile()
	h := func(x float64) float64 { return c.G(math.Mod(math.Mod(x, 1)+1, 1)) - target }
	var roots []float64
	// Scan the wrapped circle with a half-cell offset so grid points never
	// coincide with the canonical phases 0, ¼, ½, ¾ (where calibrated
	// systems put exact zeros).
	x0 := 0.5 / n
	prev := h(x0)
	for i := 1; i <= n; i++ {
		x := x0 + float64(i)/n
		cur := h(x)
		if prev*cur <= 0 && (prev != 0 || cur != 0) {
			lo, hi := x-1.0/n, x
			flo := h(lo)
			for it := 0; it < 80; it++ {
				mid := (lo + hi) / 2
				fm := h(mid)
				if fm == 0 {
					lo, hi = mid, mid
					break
				}
				if flo*fm < 0 {
					hi = mid
				} else {
					lo, flo = mid, fm
				}
			}
			roots = append(roots, (lo+hi)/2)
		}
		prev = cur
	}
	out := make([]Equilibrium, 0, len(roots))
	for _, r := range roots {
		rr := math.Mod(math.Mod(r, 1)+1, 1)
		gp := c.GPrime(rr)
		// Dedupe circularly (a root can be found in two adjacent cells).
		dup := false
		for _, e := range out {
			if CircularDistance(e.Dphi, rr) < 1e-7 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, Equilibrium{Dphi: rr, Stable: gp < 0, GPrime: gp})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dphi < out[j].Dphi })
	return out
}

// StableEquilibria filters Equilibria to the stable locks.
func (m *Model) StableEquilibria() []Equilibrium {
	var out []Equilibrium
	for _, e := range m.Equilibria() {
		if e.Stable {
			out = append(out, e)
		}
	}
	return out
}

// WillLock reports whether the GAE has at least one stable equilibrium —
// the tools' yes/no SHIL-prediction without plotting (Sec. 4.1).
func (m *Model) WillLock() bool { return len(m.StableEquilibria()) > 0 }

// LockingBand returns the detuning interval [f1lo, f1hi] (absolute
// frequencies) within which the injection set sustains lock: f1 − f0 must
// lie in f0·[min g, max g].
func (m *Model) LockingBand() (f1lo, f1hi float64) {
	gmin, gmax := m.GRange()
	return m.P.F0 * (1 + gmin), m.P.F0 * (1 + gmax)
}

// CircularDistance returns the distance between two phases in cycles,
// folded into [0, 0.5].
func CircularDistance(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 1)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

// SHILPhases returns the two stable SHIL lock phases for a SYNC-only model,
// erroring when the model is not bistable (errors.Is(err, ErrNoLock) when no
// lock exists at all). They are separated by ≈0.5 cycles (the paper's
// phase-logic 0 and 1).
func (m *Model) SHILPhases() (dphi0, dphi1 float64, err error) {
	st := m.StableEquilibria()
	if len(st) == 0 {
		return 0, 0, fmt.Errorf("gae: %w", ErrNoLock)
	}
	if len(st) != 2 {
		return 0, 0, fmt.Errorf("gae: expected 2 stable SHIL phases, found %d", len(st))
	}
	sep := CircularDistance(st[0].Dphi, st[1].Dphi)
	if sep < 0.35 {
		return 0, 0, fmt.Errorf("gae: stable phases separated by %.3f cycles, want ≈0.5", sep)
	}
	return st[0].Dphi, st[1].Dphi, nil
}

// GCurve samples g(Δφ) on n points — the RHS curve of Figs. 5 and 10.
func (m *Model) GCurve(n int) (dphi, g []float64) {
	dphi = make([]float64, n)
	g = make([]float64, n)
	c := m.Compile()
	for i := 0; i < n; i++ {
		dphi[i] = float64(i) / float64(n-1)
		g[i] = c.G(dphi[i])
	}
	return dphi, g
}

// BruteForceG numerically averages the unaveraged phase coupling
//
//	(1/N·T1) ∫ Σ VIₖ((Δφ + f1 t)/f0)·Iₖ(t) dt
//
// over cycles of the reference — the quantity Generalized Adlerization
// approximates analytically. Used to validate the harmonic pick-off.
func (m *Model) BruteForceG(dphi float64, cycles, samplesPerCycle int) float64 {
	t1 := 1 / m.F1
	n := cycles * samplesPerCycle
	sum := 0.0
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n) * float64(cycles) * t1
		tau := dphi + m.F1*t // normalized PPV argument in cycles
		for _, in := range m.Injections {
			if in.Amp == 0 {
				continue
			}
			cur := in.Amp * math.Cos(2*math.Pi*(float64(in.Harmonic)*m.F1*t+in.Phase))
			sum += m.P.NodeSeries[in.Node].Eval(tau) * cur
		}
	}
	return sum / float64(n)
}

// LockedPhaseVsReference computes the paper's locking phase error machinery
// (Fig. 8): given reference lock phases refs (e.g. the zero-detuning SHIL
// phases), return for each stable equilibrium its circular distance to the
// nearest reference.
func (m *Model) LockedPhaseVsReference(refs []float64) []float64 {
	var out []float64
	for _, e := range m.StableEquilibria() {
		best := math.Inf(1)
		for _, r := range refs {
			if d := CircularDistance(e.Dphi, r); d < best {
				best = d
			}
		}
		out = append(out, best)
	}
	return out
}

// ErrNoLock is returned by analyses that require an existing lock.
var ErrNoLock = errors.New("gae: no stable equilibrium (injection too weak or detuning too large)")

// PhaseOfHarmonic is a convenience exposing ∠V_m of a node's PPV (used when
// aligning injection phases with lock phases).
func (m *Model) PhaseOfHarmonic(node, harm int) float64 {
	return cmplx.Phase(m.P.Harmonic(node, harm)) / (2 * math.Pi)
}
