package gae_test

import (
	"context"
	"testing"

	"repro/internal/gae"
)

// TestLockingBandsMatchesScalarAndHandlesNil pins the corner-ensemble drain:
// each band must equal the model's own LockingBand, nil lanes yield zero
// bands, and the fan-out is bit-identical at any worker count.
func TestLockingBandsMatchesScalarAndHandlesNil(t *testing.T) {
	p := ringPPV(t)
	models := []*gae.Model{
		gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2}),
		nil,
		gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 60e-6, Harmonic: 2}),
	}
	serial, err := gae.LockingBandsCtx(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(models) {
		t.Fatalf("got %d bands, want %d", len(serial), len(models))
	}
	for i, m := range models {
		if m == nil {
			if serial[i] != (gae.CornerBand{}) {
				t.Fatalf("nil model %d produced %+v, want zero band", i, serial[i])
			}
			continue
		}
		lo, hi := m.LockingBand()
		if serial[i].F1Lo != lo || serial[i].F1Hi != hi || serial[i].Locks != (hi > lo) {
			t.Fatalf("band %d = %+v, want [%g, %g]", i, serial[i], lo, hi)
		}
	}
	par, err := gae.LockingBandsCtx(context.Background(), models, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if par[i] != serial[i] {
			t.Fatalf("band %d differs across worker counts: %+v vs %+v", i, par[i], serial[i])
		}
	}
}
