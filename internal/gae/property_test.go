package gae_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gae"
)

// randomInjections draws a small random injection set with harmonics ≥ 1
// (the phase-logic cases: SYNC at 2, logic inputs at 1).
func randomInjections(rng *rand.Rand, nodes int) []gae.Injection {
	inj := make([]gae.Injection, 1+rng.Intn(3))
	for i := range inj {
		inj[i] = gae.Injection{
			Node:     rng.Intn(nodes),
			Amp:      (0.2 + rng.Float64()) * 150e-6,
			Harmonic: 1 + rng.Intn(3),
			Phase:    rng.Float64(),
		}
	}
	return inj
}

// g(Δφ) is a finite Fourier sum with no DC term whenever every injection has
// harmonic ≥ 1, so its mean over the phase circle must vanish: injections
// cannot produce net frequency drift by themselves, only reshape the phase
// dynamics. (A nonzero mean would fake a detuning and shift every locking
// band the ledger checks.)
func TestGZeroMeanOverPhaseCircle(t *testing.T) {
	p := ringPPV(t)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		m := gae.NewModel(p, p.F0, randomInjections(rng, len(p.NodeSeries))...)
		const n = 720
		sum, scale := 0.0, 0.0
		for i := 0; i < n; i++ {
			g := m.G(float64(i) / n)
			sum += g
			if a := math.Abs(g); a > scale {
				scale = a
			}
		}
		if mean := math.Abs(sum / n); mean > 1e-12*(1+scale) {
			t.Errorf("trial %d: mean of g over the circle = %g (scale %g)", trial, mean, scale)
		}
	}
}

// With no injections the phase equation collapses to dΔφ/dt = f0 − f1, for
// both the averaged GAE and the unaveraged eq.-(13) integrator: the drift
// after Δt must be exactly (f0−f1)·Δt from any initial phase.
func TestZeroInjectionDriftMatchesDetuning(t *testing.T) {
	p := ringPPV(t)
	rng := rand.New(rand.NewSource(22))
	for _, rel := range []float64{0, 1e-4, -3e-4, 2e-3} {
		f1 := p.F0 * (1 + rel)
		m := gae.NewModel(p, f1)
		x0 := rng.Float64()
		dt := 50 / p.F0
		want := (p.F0 - f1) * dt

		avg := m.TransientCtx(context.Background(), x0, 0, dt, 1/p.F0).Final() - x0
		if d := math.Abs(avg - want); d > 1e-9*(1+math.Abs(want)) {
			t.Errorf("rel=%g: averaged drift %g, want %g", rel, avg, want)
		}
		raw := m.TransientNonAveragedCtx(context.Background(), x0, 0, dt, 64).Final() - x0
		if d := math.Abs(raw - want); d > 1e-9*(1+math.Abs(want)) {
			t.Errorf("rel=%g: unaveraged drift %g, want %g", rel, raw, want)
		}
	}
}

// Every reported equilibrium must actually solve g(Δφ*) = detune, its Stable
// flag must equal the sign test g′(Δφ*) < 0, and stability must alternate
// around the circle (a 1-D flow on the circle cannot have two adjacent
// attractors without a repeller between them). Checked across random SYNC
// amplitudes and detunings inside the locking cone.
func TestEquilibriaStabilityConsistency(t *testing.T) {
	p := ringPPV(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		amp := (0.5 + rng.Float64()) * 100e-6
		m := gae.NewModel(p, p.F0, gae.Injection{
			Name: "SYNC", Node: 0, Amp: amp, Harmonic: 2, Phase: rng.Float64(),
		})
		gmin, gmax := m.GRange()
		mid, half := (gmin+gmax)/2, (gmax-gmin)/2
		det := mid + (2*rng.Float64()-1)*0.8*half // strictly inside the cone
		m.F1 = p.F0 * (1 + det)

		eqs := m.Equilibria()
		if len(eqs)%2 != 0 {
			t.Errorf("trial %d: %d equilibria, want an even count", trial, len(eqs))
		}
		for i, eq := range eqs {
			if d := math.Abs(m.G(eq.Dphi) - m.Detune()); d > 1e-8*(1+math.Abs(m.Detune())) {
				t.Errorf("trial %d eq %d: g(Δφ*)−detune = %g", trial, i, d)
			}
			gp := m.GPrime(eq.Dphi)
			if eq.Stable != (gp < 0) {
				t.Errorf("trial %d eq %d: Stable=%v but g′=%g", trial, i, eq.Stable, gp)
			}
			if math.Abs(eq.GPrime-gp) > 1e-6*(1+math.Abs(gp)) {
				t.Errorf("trial %d eq %d: reported g′=%g, evaluated %g", trial, i, eq.GPrime, gp)
			}
			if eqs[(i+1)%len(eqs)].Stable == eq.Stable {
				t.Errorf("trial %d: equilibria %d and %d have equal stability", trial, i, i+1)
			}
		}
		if m.WillLock() != (len(m.StableEquilibria()) > 0) {
			t.Errorf("trial %d: WillLock inconsistent with StableEquilibria", trial)
		}
	}
}

// A stable equilibrium must attract nearby averaged transients; an unstable
// one must repel them. This closes the loop between the static stability
// classification and the dynamics the bit-flip predictions integrate.
func TestTransientsRespectStability(t *testing.T) {
	p := ringPPV(t)
	m := gae.NewModel(p, p.F0, gae.Injection{
		Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2,
	})
	for _, eq := range m.Equilibria() {
		for _, off := range []float64{-0.02, 0.02} {
			res := m.TransientCtx(context.Background(), eq.Dphi+off, 0, 3000/p.F0, 1/p.F0)
			d := gae.CircularDistance(res.Final(), eq.Dphi)
			if eq.Stable && d > 1e-3 {
				t.Errorf("stable eq %.4f: transient from %+g ended %g away", eq.Dphi, off, d)
			}
			if !eq.Stable && d < 0.01 {
				t.Errorf("unstable eq %.4f: transient from %+g stayed within %g", eq.Dphi, off, d)
			}
		}
	}
}
