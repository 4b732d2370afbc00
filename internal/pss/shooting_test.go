package pss_test

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/pss"
	"repro/internal/ringosc"
)

func buildRing(t testing.TB, cfg ringosc.Config) *ringosc.Ring {
	r, err := ringosc.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestShootAutonomousRing(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated operating point: f0 ≈ 9.6 kHz.
	if sol.F0 < 9.3e3 || sol.F0 > 9.9e3 {
		t.Errorf("f0 = %g Hz, want ≈9.6 kHz", sol.F0)
	}
	if sol.Residual > 1e-6 {
		t.Errorf("periodicity residual = %g", sol.Residual)
	}
	// Waveform swings (nearly) rail to rail.
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range sol.States {
		min = math.Min(min, x[0])
		max = math.Max(max, x[0])
	}
	if min > 0.3 || max < 2.7 {
		t.Errorf("PSS swing [%g, %g], want ≈[0, 3]", min, max)
	}
	// Floquet structure: trivial multiplier at 1, others inside unit circle.
	trivial, largest, stable := sol.StabilityReport()
	if cmplx.Abs(trivial-1) > 0.02 {
		t.Errorf("trivial multiplier = %v, want ≈1", trivial)
	}
	if !stable {
		t.Errorf("oscillator reported unstable (largest other multiplier %g)", largest)
	}
}

func TestShootAutonomousSymmetryAcrossStages(t *testing.T) {
	// In a symmetric ring, each stage's waveform is the previous stage's
	// shifted by T/3 and inverted in slope sense; at minimum all three
	// waveforms must share identical min/max.
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var mins, maxs [3]float64
	for s := 0; s < 3; s++ {
		mins[s], maxs[s] = math.Inf(1), math.Inf(-1)
		for _, x := range sol.States {
			mins[s] = math.Min(mins[s], x[s])
			maxs[s] = math.Max(maxs[s], x[s])
		}
	}
	for s := 1; s < 3; s++ {
		if math.Abs(mins[s]-mins[0]) > 1e-3 || math.Abs(maxs[s]-maxs[0]) > 1e-3 {
			t.Errorf("stage %d extrema (%g, %g) differ from stage 0 (%g, %g)",
				s, mins[s], maxs[s], mins[0], maxs[0])
		}
	}
}

func TestNodeSeriesReconstruction(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sol.NodeSeries(0, 32)
	// The series must reproduce the grid samples.
	k := sol.K()
	worst := 0.0
	for i := 0; i < k; i++ {
		d := math.Abs(s.Eval(float64(i)/float64(k)) - sol.States[i][0])
		if d > worst {
			worst = d
		}
	}
	if worst > 5e-3 {
		t.Errorf("Fourier reconstruction error %g V", worst)
	}
}

func TestStateAtWrapsPeriod(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := sol.StateAt(0.25 * sol.T0)
	b := sol.StateAt(2.25 * sol.T0)
	c := sol.StateAt(-0.75 * sol.T0)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 || math.Abs(a[i]-c[i]) > 1e-12 {
			t.Fatal("StateAt must be T0-periodic")
		}
	}
}

func TestShootAutonomous2N1P(t *testing.T) {
	r := buildRing(t, ringosc.Config2N1P())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Asymmetric inverter: faster and with more harmonic distortion than
	// the symmetric ring.
	if sol.F0 < 10e3 {
		t.Errorf("2N1P f0 = %g Hz, expected above the 1N1P 9.6 kHz", sol.F0)
	}
	s := sol.NodeSeries(0, 16)
	if s.THD() < 0.05 {
		t.Errorf("2N1P THD = %g, expected visible distortion", s.THD())
	}
}

// Benchmark the full shooting solve on the paper's ring (cost reference for
// the efficiency table).
func BenchmarkShootAutonomousRing(b *testing.B) {
	r := buildRing(b, ringosc.DefaultConfig())
	x0 := r.KickStart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pss.ShootAutonomous(r.Sys, x0, pss.Options{
			GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 256, SettleCycles: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
