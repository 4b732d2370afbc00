package variation_test

import (
	"context"
	"testing"

	"repro/internal/gae"
	"repro/internal/noise"
	"repro/internal/parallel"
	"repro/internal/phasemacro"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/variation"
)

// cornerModels builds a small corner set around one solved PPV: the corners
// share the oscillator but differ in SYNC phase detail, which is all
// CornerBERs consumes (it only reads Model).
func cornerModels(t *testing.T, n int) []variation.CornerResult {
	t.Helper()
	r, err := ringosc.Build(ringosc.DefaultConfig())
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
	cal, err := phasemacro.Calibrate(&phasemacro.Latch{P: p, Node: 0, Out: 0}, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]variation.CornerResult, n)
	for i := range out {
		out[i] = variation.CornerResult{
			PPV: p,
			Model: gae.NewModel(p, p.F0,
				gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2, Phase: cal.SyncPhase},
				gae.Injection{Name: "D", Node: 0, Amp: 15e-6, Harmonic: 1, Phase: 0.1 + 0.02*float64(i)},
			),
		}
	}
	return out
}

// CornerBERs must give corner i exactly EstimateBER with the sub-seeded
// ensemble — decorrelated across corners, reproducible in isolation.
func TestCornerBERsSubSeedsEachCorner(t *testing.T) {
	corners := cornerModels(t, 3)
	ctx := context.Background()
	opt := noise.BEROptions{TBit: 0.01, Bits: 4, Members: 6, Dt: 1e-4, Seed: 11, Workers: 2}
	got, err := variation.CornerBERs(ctx, corners, 6e-3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(corners) {
		t.Fatalf("%d results for %d corners", len(got), len(corners))
	}
	for i, cr := range corners {
		want := opt
		want.Seed = parallel.SubSeed(opt.Seed, i)
		ref, err := noise.EstimateBER(ctx, cr.Model, 6e-3, want)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != ref {
			t.Fatalf("corner %d: %+v, want sub-seeded estimate %+v", i, got[i], ref)
		}
		if got[i].Bits != opt.Bits*opt.Members {
			t.Fatalf("corner %d observed %d bits, want %d", i, got[i].Bits, opt.Bits*opt.Members)
		}
	}
}
