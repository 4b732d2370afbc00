package gae_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gae"
)

// TestSweepsBitIdenticalAtAnyWorkerCount pins the engine refactor's
// determinism contract on the real pipeline: every sweep must produce the
// same bits whether it runs serially or fanned out.
func TestSweepsBitIdenticalAtAnyWorkerCount(t *testing.T) {
	p := ringPPV(t)
	m := gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2})
	amps := gae.Linspace(0, 150e-6, 13)
	lo, hi := m.LockingBand()
	f1s := gae.Linspace(lo+(hi-lo)*0.05, hi-(hi-lo)*0.05, 9)
	ctx := context.Background()

	serialLock, err := m.SweepSyncAmplitudeCtx(ctx, 0, 2, amps, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialEq, err := m.SweepDetuningCtx(ctx, f1s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		lock, err := m.SweepSyncAmplitudeCtx(ctx, 0, 2, amps, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range lock {
			if lock[i] != serialLock[i] {
				t.Fatalf("workers=%d: lock point %d differs: %+v vs %+v", w, i, lock[i], serialLock[i])
			}
		}
		eq, err := m.SweepDetuningCtx(ctx, f1s, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range eq {
			if len(eq[i].Equil) != len(serialEq[i].Equil) {
				t.Fatalf("workers=%d: point %d: %d equilibria vs %d", w, i, len(eq[i].Equil), len(serialEq[i].Equil))
			}
			for j := range eq[i].Equil {
				if eq[i].Equil[j] != serialEq[i].Equil[j] {
					t.Fatalf("workers=%d: point %d equilibrium %d differs", w, i, j)
				}
			}
		}
	}
}

func TestSweepCancellationStopsPromptly(t *testing.T) {
	p := ringPPV(t)
	m := gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	amps := gae.Linspace(0, 150e-6, 500)
	pts, err := m.SweepSyncAmplitudeCtx(ctx, 0, 2, amps, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// At most one in-flight point per worker may have completed.
	done := 0
	for _, pt := range pts {
		if pt != (gae.LockPoint{}) {
			done++
		}
	}
	if done > 8 {
		t.Fatalf("%d sweep points computed on a canceled context", done)
	}
}

// TestGRangeMatchesDenseScan guards the single-pass GRange against the
// straightforward (but 2.5× more expensive) definition.
func TestGRangeMatchesDenseScan(t *testing.T) {
	p := ringPPV(t)
	m := gae.NewModel(p, p.F0,
		gae.Injection{Name: "SYNC", Node: 0, Amp: 120e-6, Harmonic: 2},
		gae.Injection{Name: "D", Node: 0, Amp: 40e-6, Harmonic: 1, Phase: 0.1},
	)
	gmin, gmax := m.GRange()
	const n = 4096
	scanMin, scanMax := m.G(0), m.G(0)
	for i := 1; i < n; i++ {
		g := m.G(float64(i) / n)
		if g < scanMin {
			scanMin = g
		}
		if g > scanMax {
			scanMax = g
		}
	}
	// The refined extrema must bracket any dense scan.
	if gmin > scanMin+1e-12 || gmax < scanMax-1e-12 {
		t.Fatalf("GRange [%g, %g] tighter than dense scan [%g, %g]", gmin, gmax, scanMin, scanMax)
	}
	// And land close to it (golden-section converges within the cell).
	if gmax-scanMax > 1e-6*(scanMax-scanMin) || scanMin-gmin > 1e-6*(scanMax-scanMin) {
		t.Fatalf("GRange [%g, %g] far from dense scan [%g, %g]", gmin, gmax, scanMin, scanMax)
	}
}
