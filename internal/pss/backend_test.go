package pss_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// TestShootBackendsAgree finds the same limit cycle with dense and sparse
// inner transients and requires matching periods and initial states: the
// backend must be an implementation detail of the linear algebra, never of
// the physics. A single ring is used because coupled identical rings carry a
// near-unit second Floquet multiplier that defeats shooting regardless of
// backend; the sparse branch is forced explicitly, so circuit size does not
// matter here.
func TestShootBackendsAgree(t *testing.T) {
	arr, err := ringosc.BuildArray(1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := arr.KickStart()
	base := pss.Options{
		GuessT:         1 / arr.EstimatedF0(),
		StepsPerPeriod: 256,
	}
	dOpt, sOpt := base, base
	dOpt.Backend = linalg.BackendDense
	sOpt.Backend = linalg.BackendSparse
	ds, err := pss.ShootAutonomousCtx(context.Background(), arr.Sys, x0, dOpt)
	if err != nil {
		t.Fatalf("dense shoot: %v", err)
	}
	ss, err := pss.ShootAutonomousCtx(context.Background(), arr.Sys, x0, sOpt)
	if err != nil {
		t.Fatalf("sparse shoot: %v", err)
	}
	if rel := math.Abs(ds.T0-ss.T0) / ds.T0; rel > 1e-6 {
		t.Fatalf("periods differ by %.3g relative (%g vs %g)", rel, ds.T0, ss.T0)
	}
	for i := range ds.X0 {
		if d := math.Abs(ds.X0[i] - ss.X0[i]); d > 1e-4 {
			t.Fatalf("orbit anchors differ at node %d by %g", i, d)
		}
	}
	// Both monodromies must agree on the dominant Floquet structure: the
	// trivial multiplier pinned at 1.
	tds, _, _ := ds.StabilityReport()
	tss, _, _ := ss.StabilityReport()
	if math.Abs(real(tds)-real(tss)) > 1e-3 {
		t.Fatalf("trivial multipliers differ: %v vs %v", tds, tss)
	}
}
