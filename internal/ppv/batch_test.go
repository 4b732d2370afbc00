package ppv_test

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fourier"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// TestFromSolutionsBatchBitIdentical pins the batched PPV extractor to the
// adjoint written per corner (refAdjoint): on the same converged per-lane
// Solutions, every lane's PPV must be bit for bit the oracle's — same grid
// samples, same Fourier coefficients of them, same normalization spread.
// Nil lanes pass through.
func TestFromSolutionsBatchBitIdentical(t *testing.T) {
	scales := []float64{0.94, 1.0, 1.07}
	K := len(scales)
	rings := make([]*ringosc.Ring, K)
	systems := make([]*circuit.System, K)
	x0s := make([][]float64, K)
	guess := make([]float64, K)
	for k, s := range scales {
		cfg := ringosc.DefaultConfig()
		cfg.CLoad *= s
		r, err := ringosc.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rings[k] = r
		systems[k] = r.Sys
		x0s[k] = r.KickStart()
		guess[k] = 1 / r.EstimatedF0()
	}
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	n := b.N
	x0 := make([]float64, K*n)
	for k := range scales {
		copy(x0[k*n:(k+1)*n], x0s[k])
	}
	sols, errs, err := pss.ShootAutonomousBatch(context.Background(), b, x0, pss.BatchShootOptions{
		GuessT: guess, StepsPerPeriod: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range errs {
		if e != nil {
			t.Fatalf("lane %d shooting: %v", k, e)
		}
	}

	// Knock out the middle lane to exercise nil passthrough.
	holed := append([]*pss.Solution(nil), sols...)
	holed[1] = nil
	got, gerrs, err := ppv.FromSolutionsBatch(context.Background(), b, holed)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != nil || gerrs[1] != nil {
		t.Fatalf("nil lane produced ppv=%v err=%v", got[1], gerrs[1])
	}
	for _, k := range []int{0, 2} {
		if gerrs[k] != nil {
			t.Fatalf("lane %d: %v", k, gerrs[k])
		}
		want, normErr, werr := refAdjoint(systems[k], sols[k])
		if werr != nil {
			t.Fatal(werr)
		}
		p := got[k]
		if p.T0 != sols[k].T0 || p.F0 != sols[k].F0 || p.NormError != normErr {
			t.Fatalf("lane %d header: got (T0=%v F0=%v normErr=%v), want (T0=%v F0=%v normErr=%v)",
				k, p.T0, p.F0, p.NormError, sols[k].T0, sols[k].F0, normErr)
		}
		if len(p.VI) != len(want) {
			t.Fatalf("lane %d: %d VI samples, want %d", k, len(p.VI), len(want))
		}
		for i := range p.VI {
			for j := range p.VI[i] {
				if p.VI[i][j] != want[i][j] {
					t.Fatalf("lane %d VI[%d][%d] = %v, want %v (bit-exact)", k, i, j, p.VI[i][j], want[i][j])
				}
			}
		}
		for node := range p.NodeSeries {
			samples := make([]float64, len(want)-1)
			for i := range samples {
				samples[i] = want[i][node]
			}
			ws := fourier.NewSeriesFromSamples(samples, ppv.MaxHarmonics)
			for m := 0; m <= ppv.MaxHarmonics; m++ {
				if p.NodeSeries[node].Coefficient(m) != ws.Coefficient(m) {
					t.Fatalf("lane %d node %d harmonic %d differs", k, node, m)
				}
			}
		}
	}
}
