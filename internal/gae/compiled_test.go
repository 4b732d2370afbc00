package gae_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/gae"
)

// randomInjectionsFull draws injection sets over the full supported harmonic
// range — negative (folded by the reality condition), zero (a DC term) and
// positive — including zero-amplitude entries that both paths must skip.
func randomInjectionsFull(rng *rand.Rand, nodes int) []gae.Injection {
	inj := make([]gae.Injection, 1+rng.Intn(5))
	for i := range inj {
		amp := (0.2 + rng.Float64()) * 150e-6
		if rng.Intn(6) == 0 {
			amp = 0
		}
		inj[i] = gae.Injection{
			Node:     rng.Intn(nodes),
			Amp:      amp,
			Harmonic: rng.Intn(9) - 3, // −3 … 5
			Phase:    2*rng.Float64() - 1,
		}
	}
	return inj
}

// coefficientScale is the natural magnitude of g — the sum of folded
// coefficient magnitudes — against which the compiled/interpreted agreement
// is measured (g itself passes through zero, so a plain relative tolerance
// would be meaningless at the crossings).
func coefficientScale(m *gae.Model) float64 {
	s := 0.0
	for _, in := range m.Injections {
		s += math.Abs(in.Amp) * cmplx.Abs(m.P.Harmonic(in.Node, in.Harmonic))
	}
	return s
}

// Compile must reproduce the interpreted oracle's g and g′ to ≤1e-14 of
// the coefficient scale over random injection sets spanning negative, zero
// and stacked harmonics, with and without ExtraG.
func TestCompiledGMatchesModel(t *testing.T) {
	p := ringPPV(t)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		m := gae.NewModel(p, p.F0*(1+1e-4), randomInjectionsFull(rng, len(p.NodeSeries))...)
		if trial%3 == 0 {
			a := (0.5 + rng.Float64()) * 1e-4
			m.ExtraG = func(dphi float64) float64 { return a * math.Sin(2*math.Pi*(dphi+0.3)) }
		}
		cg := m.Compile()
		g, gp := interpretedG(m), interpretedGPrime(m)
		scale := coefficientScale(m) + 1e-12
		maxH := 1 + float64(cg.MaxHarmonic())
		for i := 0; i < 64; i++ {
			dphi := 4*rng.Float64() - 2
			// The two implementations reduce the harmonic angle differently
			// (m·fl(2πΔφ) vs fl(2π(mΔφ−ψ))), so their divergence grows with
			// the harmonic winding m·|Δφ|; on the unit phase circle with the
			// phase-logic harmonics (1–2) the factor is ~1 and the bound is
			// the plain 1e-14·scale.
			wind := maxH * (1 + math.Abs(dphi))
			if dg := math.Abs(cg.G(dphi) - g(dphi)); dg > 1e-14*scale*wind {
				t.Fatalf("trial %d: |compiled−interpreted| g = %g at Δφ=%g (scale %g)",
					trial, dg, dphi, scale)
			}
			// The derivative scale additionally picks up the 2πm weights.
			if dp := math.Abs(cg.GPrime(dphi) - gp(dphi)); dp > 1e-14*scale*wind*2*math.Pi*maxH {
				t.Fatalf("trial %d: |compiled−interpreted| g' = %g at Δφ=%g", trial, dp, dphi)
			}
		}
	}
}

// The batched entry points must be bit-identical to the scalar compiled
// kernel lane by lane — this equality is what lets package noise certify
// batched lanes against scalar compiled members exactly.
func TestCompiledGBatchBitIdenticalToScalar(t *testing.T) {
	p := ringPPV(t)
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		m := gae.NewModel(p, p.F0*(1-2e-4), randomInjectionsFull(rng, len(p.NodeSeries))...)
		cg := m.Compile()
		n := 1 + rng.Intn(33)
		dphi := make([]float64, n)
		for i := range dphi {
			dphi[i] = 3*rng.Float64() - 1.5
		}
		g := make([]float64, n)
		rhs := make([]float64, n)
		cg.EvalInto(dphi, g)
		cg.RHSBatch(dphi, rhs)
		for i := range dphi {
			if g[i] != cg.G(dphi[i]) {
				t.Fatalf("trial %d lane %d: EvalInto %v != scalar G %v", trial, i, g[i], cg.G(dphi[i]))
			}
			if rhs[i] != cg.RHS(dphi[i]) {
				t.Fatalf("trial %d lane %d: RHSBatch %v != scalar RHS %v", trial, i, rhs[i], cg.RHS(dphi[i]))
			}
		}
		// In-place evaluation (g aliasing dphi) must give the same lanes.
		inPlace := append([]float64(nil), dphi...)
		cg.EvalInto(inPlace, inPlace)
		for i := range g {
			if inPlace[i] != g[i] {
				t.Fatalf("trial %d lane %d: aliased EvalInto diverged", trial, i)
			}
		}
	}
}

// RHS must fold the detuning exactly like the interpreted right-hand side:
// (f0−f1) + f0·g with the subtraction done once at compile time gives the
// same double.
func TestCompiledRHSDetuning(t *testing.T) {
	p := ringPPV(t)
	for _, rel := range []float64{0, 1e-4, -3e-4, 2e-3} {
		m := gae.NewModel(p, p.F0*(1+rel)) // no injections: g ≡ 0
		cg := m.Compile()
		g := interpretedG(m)
		for _, dphi := range []float64{0, 0.3, -1.7} {
			if got, want := cg.RHS(dphi), (p.F0-m.F1)+p.F0*g(dphi); got != want {
				t.Fatalf("rel=%g: compiled RHS %v, interpreted RHS %v", rel, got, want)
			}
		}
	}
}

// interpretedG is g(Δφ) summed injection by injection, as the package doc
// writes it: one PPV harmonic pick-off, one sin and one cos per injection,
// plus ExtraG. It is the oracle the folded kernel is checked against.
func interpretedG(m *gae.Model) func(dphi float64) float64 {
	return func(dphi float64) float64 {
		s := 0.0
		for _, in := range m.Injections {
			if in.Amp == 0 {
				continue
			}
			c := m.P.Harmonic(in.Node, in.Harmonic)
			ang := 2 * math.Pi * (float64(in.Harmonic)*dphi - in.Phase)
			s += in.Amp * (real(c)*math.Cos(ang) - imag(c)*math.Sin(ang))
		}
		if m.ExtraG != nil {
			s += m.ExtraG(dphi)
		}
		return s
	}
}

// interpretedGPrime is dg/dΔφ of interpretedG, term by term, with ExtraG
// differentiated by the same central difference as the kernel's.
func interpretedGPrime(m *gae.Model) func(dphi float64) float64 {
	return func(dphi float64) float64 {
		s := 0.0
		for _, in := range m.Injections {
			if in.Amp == 0 {
				continue
			}
			c := m.P.Harmonic(in.Node, in.Harmonic)
			w := 2 * math.Pi * float64(in.Harmonic)
			ang := w*dphi - 2*math.Pi*in.Phase
			s += in.Amp * w * (-real(c)*math.Sin(ang) - imag(c)*math.Cos(ang))
		}
		if m.ExtraG != nil {
			const h = 1e-6
			s += (m.ExtraG(dphi+h) - m.ExtraG(dphi-h)) / (2 * h)
		}
		return s
	}
}

// oracleModel is m with its g replaced by interpretedG(m): no injections,
// the whole sum in ExtraG, so every analysis of the returned model runs on
// the oracle.
func oracleModel(m *gae.Model) *gae.Model {
	return &gae.Model{P: m.P, F1: m.F1, ExtraG: interpretedG(m)}
}

// The analyses built on g — GRange, LockingBand and Equilibria — must read
// the same on the folded kernel as on the interpreted oracle: the extrema
// and band edges to 1e-12 relative, the same number of equilibria, each
// within 1e-12 cycles and of the same stability. The models are a SYNC-only
// latch and Fig. 10's D-latch models (SYNC 120 µA at the calibrated phase,
// D at 0, 30, 50 and 100 µA aligned with logic 1).
func TestAnalysesMatchInterpretedOracle(t *testing.T) {
	p := ringPPV(t)
	syncPhase := (cmplx.Phase(p.Harmonic(0, 2)) - math.Pi/2) / (2 * math.Pi)
	dPhase := cmplx.Phase(p.Harmonic(0, 1))/(2*math.Pi) - 0.25
	models := []*gae.Model{gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2})}
	for _, da := range []float64{0, 30e-6, 50e-6, 100e-6} {
		models = append(models, gae.NewModel(p, p.F0,
			gae.Injection{Name: "SYNC", Node: 0, Amp: 120e-6, Harmonic: 2, Phase: syncPhase},
			gae.Injection{Name: "D", Node: 0, Amp: da, Harmonic: 1, Phase: dPhase},
		))
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)) }
	for i, m := range models {
		o := oracleModel(m)
		gmin, gmax := m.GRange()
		omin, omax := o.GRange()
		if rel(gmin, omin) > 1e-12 || rel(gmax, omax) > 1e-12 {
			t.Errorf("model %d: GRange [%g, %g], oracle [%g, %g]", i, gmin, gmax, omin, omax)
		}
		lo, hi := m.LockingBand()
		olo, ohi := o.LockingBand()
		if rel(lo, olo) > 1e-12 || rel(hi, ohi) > 1e-12 {
			t.Errorf("model %d: LockingBand [%g, %g], oracle [%g, %g]", i, lo, hi, olo, ohi)
		}
		eq, oeq := m.Equilibria(), o.Equilibria()
		if len(eq) != len(oeq) {
			t.Fatalf("model %d: %d equilibria, oracle %d", i, len(eq), len(oeq))
		}
		for k := range eq {
			if d := gae.CircularDistance(eq[k].Dphi, oeq[k].Dphi); d > 1e-12 || eq[k].Stable != oeq[k].Stable {
				t.Errorf("model %d equilibrium %d: %+v, oracle %+v (%g cycles apart)", i, k, eq[k], oeq[k], d)
			}
		}
	}
}
