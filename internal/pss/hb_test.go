package pss_test

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

func ringHB(t testing.TB, harms int) (*ringosc.Ring, *pss.Solution, *pss.HBSolution) {
	t.Helper()
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	hb := pss.HBFromSolution(r.Sys, sol, harms)
	return r, sol, hb
}

func TestHBResidualSmallAtShootingSolution(t *testing.T) {
	_, _, hb := ringHB(t, 24)
	// The shooting orbit, translated to frequency domain, should nearly
	// satisfy harmonic balance. The residual is a current (A); compare
	// against the mA-scale device currents.
	if hb.Residual > 5e-5 {
		t.Errorf("HB residual at shooting PSS = %g A", hb.Residual)
	}
}

func TestRefineHBImprovesResidual(t *testing.T) {
	r, sol, hb := ringHB(t, 24)
	_ = r
	before := hb.Residual
	if err := pss.RefineHBCtx(context.Background(), r.Sys, hb, 12, 1e-10); err != nil {
		t.Fatalf("RefineHB: %v", err)
	}
	if hb.Residual >= before {
		t.Errorf("refinement did not reduce residual: %g → %g", before, hb.Residual)
	}
	if hb.Residual > 1e-10 {
		t.Errorf("refined residual %g", hb.Residual)
	}
	// Frequency must stay close to the shooting estimate.
	if rel := math.Abs(hb.F0-sol.F0) / sol.F0; rel > 2e-3 {
		t.Errorf("HB frequency %g deviates %g from shooting %g", hb.F0, rel, sol.F0)
	}
}

func TestPPVHBMatchesTimeDomainPPV(t *testing.T) {
	// The paper's two extraction paths (time-domain adjoint [7, 23] and
	// frequency-domain PPV-HB [17]) must agree — the strongest internal
	// cross-validation in the tool chain.
	r, sol, hb := ringHB(t, 20)
	if err := pss.RefineHBCtx(context.Background(), r.Sys, hb, 12, 1e-10); err != nil {
		t.Fatal(err)
	}
	coefs, err := hb.PPVHB()
	if err != nil {
		t.Fatal(err)
	}
	td, err := ppv.FromSolutionCtx(context.Background(), r.Sys, sol)
	if err != nil {
		t.Fatal(err)
	}
	fd := ppv.FromHBCoefficients(sol, coefs)
	// Compare the first harmonics of node 0 — the quantities the GAE uses.
	for _, m := range []int{0, 1, 2, 3} {
		a := td.Harmonic(0, m)
		b := fd.Harmonic(0, m)
		scale := cmplx.Abs(td.Harmonic(0, 1))
		if cmplx.Abs(a-b) > 0.03*scale {
			t.Errorf("harmonic %d: time-domain %v vs PPV-HB %v (scale %g)", m, a, b, scale)
		}
	}
	// And the waveforms themselves.
	worst, scale := 0.0, 0.0
	for i := 0; i < 128; i++ {
		tt := sol.T0 * float64(i) / 128
		d := math.Abs(td.At(0, tt) - fd.At(0, tt))
		if d > worst {
			worst = d
		}
		if a := math.Abs(td.At(0, tt)); a > scale {
			scale = a
		}
	}
	if worst > 0.05*scale {
		t.Errorf("PPV waveform mismatch %g of scale %g", worst, scale)
	}
}

func TestHBNodeSeriesMatchesTimeDomain(t *testing.T) {
	_, sol, hb := ringHB(t, 24)
	s := hb.NodeSeries(0)
	ref := sol.NodeSeries(0, 24)
	for i := 0; i < 64; i++ {
		tt := float64(i) / 64
		if math.Abs(s.Eval(tt)-ref.Eval(tt)) > 1e-9 {
			t.Fatal("HBFromSolution spectrum must match NodeSeries")
		}
	}
}

func BenchmarkRefineHB(b *testing.B) {
	r := buildRing(b, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb := pss.HBFromSolution(r.Sys, sol, 16)
		if err := pss.RefineHBCtx(context.Background(), r.Sys, hb, 12, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPPVHB(b *testing.B) {
	r := buildRing(b, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	hb := pss.HBFromSolution(r.Sys, sol, 16)
	if err := pss.RefineHBCtx(context.Background(), r.Sys, hb, 12, 1e-10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hb.PPVHB(); err != nil {
			b.Fatal(err)
		}
	}
}
