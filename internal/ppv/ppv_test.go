package ppv_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
	"repro/internal/wave"
)

func extract(t testing.TB, cfg ringosc.Config) (*ringosc.Ring, *pss.Solution, *ppv.PPV) {
	t.Helper()
	r, err := ringosc.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ppv.FromSolutionCtx(context.Background(), r.Sys, sol)
	if err != nil {
		t.Fatal(err)
	}
	return r, sol, p
}

func TestPPVHealth(t *testing.T) {
	_, _, p := extract(t, ringosc.DefaultConfig())
	// These converge ~O(h) with the PSS grid (switching corners of the
	// inverters limit the discrete adjoint); the physically meaningful
	// accuracy is certified by TestPPVImpulseResponse.
	if p.PeriodicityError() > 2e-2 {
		t.Errorf("PPV periodicity error = %g", p.PeriodicityError())
	}
	if p.NormError > 5e-2 {
		t.Errorf("PPV normalization spread = %g", p.NormError)
	}
}

func TestPPVSymmetryAcrossStages(t *testing.T) {
	// The ring maps stage i onto stage i+1 under a T/3 time shift, so the
	// PPV node series must be shifted copies of each other. Stage order
	// follows the signal path: n1 drives n2, so stage 2's PPV is stage 1's
	// delayed by T/3 (up to the ring's cyclic direction).
	_, _, p := extract(t, ringosc.DefaultConfig())
	s0 := p.NodeSeries[0]
	scale := 0.0
	for i := 0; i < 64; i++ {
		if a := math.Abs(s0.Eval(float64(i) / 64)); a > scale {
			scale = a
		}
	}
	misfit := func(node int, dt float64) float64 {
		sh := s0.Shifted(dt)
		worst := 0.0
		for i := 0; i < 64; i++ {
			tt := float64(i) / 64
			if d := math.Abs(sh.Eval(tt) - p.NodeSeries[node].Eval(tt)); d > worst {
				worst = d
			}
		}
		return worst
	}
	// One cyclic direction must fit; the two non-trivial nodes use the two
	// complementary shifts.
	e1a, e1b := misfit(1, 1.0/3), misfit(1, 2.0/3)
	e2a, e2b := misfit(2, 2.0/3), misfit(2, 1.0/3)
	tol := 0.02 * scale
	forward := e1a < tol && e2a < tol
	backward := e1b < tol && e2b < tol
	if !forward && !backward {
		t.Errorf("no cyclic shift symmetry: errors fwd (%g, %g) bwd (%g, %g), scale %g",
			e1a, e2a, e1b, e2b, scale)
	}
}

// TestPPVImpulseResponse verifies the defining property of the PPV: a short
// current pulse of charge ΔQ injected into node n1 at phase τ produces an
// asymptotic phase shift Δα = VI(τ)·ΔQ. This pits the macromodel against
// brute-force SPICE-level transient simulation.
func TestPPVImpulseResponse(t *testing.T) {
	cfg := ringosc.DefaultConfig()
	_, sol, p := extract(t, cfg)
	T := sol.T0

	const dQ = 1e-10 // 100 pC: small signal vs 4.7 nF · 3 V ≈ 14 nC
	pulseW := T / 200

	for _, tau := range []float64{0.1, 0.35, 0.6, 0.85} {
		// Fresh circuits (sources differ between runs).
		mk := func(withPulse bool) (*ringosc.Ring, linalg.Vec) {
			r2, err := ringosc.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if withPulse {
				amp := dQ / pulseW
				start := (2 + tau) * T // pulse in cycle 3
				// The current leaves From and enters To, so ground→n1
				// injects +amp into n1.
				r2.Ckt.Add(&device.CurrentSource{Name: "pulse", From: circuit.Ground, To: r2.Nodes[0],
					Wave: &circuit.Pulse{V2: amp, Delay: start, Rise: pulseW / 10, Width: pulseW - pulseW/10, Fall: pulseW / 10},
				})
			}
			sys2, err := r2.Ckt.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			r2.Sys = sys2
			return r2, sol.X0.Clone()
		}

		run := func(withPulse bool) *wave.Waveform {
			r2, x0 := mk(withPulse)
			res, err := transient.RunCtx(context.Background(), r2.Sys, x0, 0, 12*T, transient.Options{
				Method: transient.Trap, Step: T / 2048,
			})
			if err != nil {
				t.Fatal(err)
			}
			w, err := wave.New(res.T, res.Node(0))
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		base := run(false)
		pert := run(true)
		// Compare the last rising crossing time: the pulsed run is shifted
		// by -Δα (a positive phase advance arrives earlier).
		cb := base.RisingCrossings(cfg.Vdd / 2)
		cp := pert.RisingCrossings(cfg.Vdd / 2)
		if len(cb) < 3 || len(cp) < 3 {
			t.Fatal("not enough crossings")
		}
		shift := cb[len(cb)-1] - cp[len(cp)-1] // = Δα
		want := p.At(0, math.Mod((2+tau)*T, T)+pulseW/2) * dQ
		// 5% of the maximum PPV magnitude as tolerance (finite pulse width,
		// step quantization).
		maxPPV := 0.0
		for i := 0; i < 128; i++ {
			if a := math.Abs(p.At(0, T*float64(i)/128)); a > maxPPV {
				maxPPV = a
			}
		}
		tol := 0.05 * maxPPV * dQ
		if math.Abs(shift-want) > tol {
			t.Errorf("tau=%.2f: measured Δα = %.4g, PPV predicts %.4g (tol %.2g)",
				tau, shift, want, tol)
		}
	}
}

func TestPPVSecondHarmonicLargerFor2N1P(t *testing.T) {
	// The paper's Fig. 6 insight: asymmetrizing the inverter (2N1P)
	// enlarges the PPV's second harmonic, widening the SHIL locking range.
	_, _, p1 := extract(t, ringosc.DefaultConfig())
	_, _, p2 := extract(t, ringosc.Config2N1P())
	h1 := p1.NodeSeries[0]
	h2 := p2.NodeSeries[0]
	// Compare relative second-harmonic content.
	r1 := h1.Magnitude(2) / h1.Magnitude(1)
	r2 := h2.Magnitude(2) / h2.Magnitude(1)
	if r2 <= r1 {
		t.Errorf("2N1P relative 2nd harmonic %g not larger than 1N1P %g", r2, r1)
	}
}

func TestFromHBCoefficientsRoundTrip(t *testing.T) {
	_, sol, p := extract(t, ringosc.DefaultConfig())
	coefs := make([][]complex128, len(p.NodeSeries))
	for i, s := range p.NodeSeries {
		coefs[i] = s.Coef
	}
	q := ppv.FromHBCoefficients(sol, coefs)
	for i := 0; i < 32; i++ {
		tt := sol.T0 * float64(i) / 32
		if math.Abs(q.At(0, tt)-p.At(0, tt)) > 1e-12 {
			t.Fatal("round trip mismatch")
		}
	}
}

func BenchmarkPPVExtraction(b *testing.B) {
	r, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppv.FromSolutionCtx(context.Background(), r.Sys, sol); err != nil {
			b.Fatal(err)
		}
	}
}
