package pss_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// cornerRingBatch builds K congruent corner rings plus their Ring handles.
func cornerRingBatch(t testing.TB, k int) ([]*ringosc.Ring, *circuit.Batch) {
	t.Helper()
	rings := make([]*ringosc.Ring, k)
	systems := make([]*circuit.System, k)
	for i := 0; i < k; i++ {
		cfg := ringosc.DefaultConfig()
		d := float64(i) - float64(k)/2
		cfg.NMOS.Beta *= 1 + 0.05*d
		cfg.PMOS.VT0 *= 1 + 0.02*d
		cfg.CLoad *= 1 + 0.06*d
		r, err := ringosc.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
		systems[i] = r.Sys
	}
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	return rings, b
}

// TestShootAutonomousBatchMatchesScalar: lanes are independent, so lane k
// of a K-lane ShootAutonomousBatch plus FromSolutionsBatch equals the
// single-circuit ShootAutonomous plus ppv.FromSolution of its own corner
// (a one-lane batch) bit for bit: f0, Newton count, every grid state, the
// monodromy and every PPV sample.
func TestShootAutonomousBatchMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("PSS convergence test")
	}
	var rings []*ringosc.Ring
	for _, s := range []float64{0.94, 1.0, 1.07} {
		cfg := ringosc.DefaultConfig()
		cfg.CLoad *= s
		rings = append(rings, buildRing(t, cfg))
	}
	requireLanesMatchSolo(t, rings, pss.Options{StepsPerPeriod: 256}, true)
}

// TestBatchHalvingLaneLeavesNeighbourBitIdentical: at six backward-Euler
// steps per period the 1.2 V ring's corrector fails until its steps are
// halved, while the 1.5 V ring's converges at every step. Side by side,
// each lane still equals its own one-lane solve bit for bit. (Six points
// per period are too few for a PPV.)
func TestBatchHalvingLaneLeavesNeighbourBitIdentical(t *testing.T) {
	var rings []*ringosc.Ring
	for _, vdd := range []float64{1.2, 1.5} {
		cfg := ringosc.DefaultConfig()
		cfg.Vdd = vdd
		rings = append(rings, buildRing(t, cfg))
	}
	opt := pss.Options{StepsPerPeriod: 6, Method: transient.BE}
	for k, want := range []bool{true, false} {
		m := diag.New()
		opt.GuessT = 1 / rings[k].EstimatedF0()
		if _, err := pss.ShootAutonomousCtx(diag.WithMetrics(context.Background(), m), rings[k].Sys, rings[k].KickStart(), opt); err != nil {
			t.Fatalf("lane %d alone: %v", k, err)
		}
		if halved := m.Get(diag.TransientRejections) > 0; halved != want {
			t.Fatalf("lane %d alone halved a step: %v, want %v", k, halved, want)
		}
	}
	opt.GuessT = 0
	requireLanesMatchSolo(t, rings, opt, false)
}

// requireLanesMatchSolo shoots rings cold as one batch and each alone, from
// their kick starts and estimated periods, with adjoint extracts every PPV
// both ways, and requires the lanes to match their solo solves bit for bit.
func requireLanesMatchSolo(t *testing.T, rings []*ringosc.Ring, opt pss.Options, adjoint bool) {
	t.Helper()
	ctx := context.Background()
	K := len(rings)
	systems := make([]*circuit.System, K)
	var x0 []float64
	guess := make([]float64, K)
	for k, r := range rings {
		systems[k] = r.Sys
		x0 = append(x0, r.KickStart()...)
		guess[k] = 1 / r.EstimatedF0()
	}
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	sols, errs, err := pss.ShootAutonomousBatch(ctx, b, x0, pss.BatchShootOptions{
		GuessT: guess, StepsPerPeriod: opt.StepsPerPeriod, Method: opt.Method,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ppvs []*ppv.PPV
	perrs := make([]error, K)
	if adjoint {
		if ppvs, perrs, err = ppv.FromSolutionsBatch(ctx, b, sols); err != nil {
			t.Fatal(err)
		}
	}
	for k, r := range rings {
		if errs[k] != nil || perrs[k] != nil {
			t.Fatalf("lane %d: %v, %v", k, errs[k], perrs[k])
		}
		opt.GuessT = guess[k]
		solo, err := pss.ShootAutonomous(r.Sys, r.KickStart(), opt)
		if err != nil {
			t.Fatalf("lane %d alone: %v", k, err)
		}
		requireSameSolution(t, fmt.Sprintf("lane %d", k), sols[k], solo)
		if adjoint {
			soloP, err := ppv.FromSolution(r.Sys, solo)
			if err != nil {
				t.Fatalf("lane %d alone: %v", k, err)
			}
			requireSamePPV(t, fmt.Sprintf("lane %d", k), ppvs[k], soloP)
		}
	}
	if sols[0].F0 == sols[K-1].F0 {
		t.Error("corner lanes returned identical F0; lanes are not independent")
	}
}

// requireSameSolution requires got to be want bit for bit: period, Newton
// count, start, every grid state and the monodromy.
func requireSameSolution(t *testing.T, what string, got, want *pss.Solution) {
	t.Helper()
	if got.F0 != want.F0 || got.T0 != want.T0 || got.Iterations != want.Iterations || got.Residual != want.Residual {
		t.Fatalf("%s: f0 %.17g Hz after %d iterations (residual %g), want %.17g Hz after %d (residual %g)",
			what, got.F0, got.Iterations, got.Residual, want.F0, want.Iterations, want.Residual)
	}
	if len(got.States) != len(want.States) {
		t.Fatalf("%s: %d grid states, want %d", what, len(got.States), len(want.States))
	}
	for i, x := range want.States {
		for j, v := range x {
			if math.Float64bits(got.States[i][j]) != math.Float64bits(v) {
				t.Fatalf("%s: state %d node %d is %v, want %v", what, i, j, got.States[i][j], v)
			}
		}
	}
	for i, v := range want.Monodromy.Data {
		if math.Float64bits(got.Monodromy.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: monodromy entry %d is %v, want %v", what, i, got.Monodromy.Data[i], v)
		}
	}
}

// requireSamePPV requires every PPV sample of got to be want's bit for bit.
func requireSamePPV(t *testing.T, what string, got, want *ppv.PPV) {
	t.Helper()
	if len(got.VI) != len(want.VI) || got.NormError != want.NormError {
		t.Fatalf("%s: %d PPV samples (spread %g), want %d (spread %g)", what, len(got.VI), got.NormError, len(want.VI), want.NormError)
	}
	for i, v := range want.VI {
		for j, x := range v {
			if math.Float64bits(got.VI[i][j]) != math.Float64bits(x) {
				t.Fatalf("%s: PPV sample %d node %d is %v, want %v", what, i, j, got.VI[i][j], x)
			}
		}
	}
}

func orbitRange(s *pss.Solution, node int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, st := range s.States {
		lo = math.Min(lo, st[node])
		hi = math.Max(hi, st[node])
	}
	return lo, hi
}

// TestShootAutonomousBatchWarmStart seeds every corner from a nominal PSS
// orbit with frequency-ratio-scaled period guesses and only a few settle
// cycles — the Monte-Carlo fast path — and checks it converges to the same
// periods as a cold batched solve.
func TestShootAutonomousBatchWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("PSS convergence test")
	}
	const K = 3
	const spp = 256
	rings, b := cornerRingBatch(t, K)
	n := b.N

	// Nominal solve (cold).
	nomCfg := ringosc.DefaultConfig()
	nom, err := ringosc.Build(nomCfg)
	if err != nil {
		t.Fatal(err)
	}
	nomSol, err := pss.ShootAutonomous(nom.Sys, nom.KickStart(), pss.Options{
		GuessT: 1 / nom.EstimatedF0(), StepsPerPeriod: spp,
	})
	if err != nil {
		t.Fatal(err)
	}

	x0 := make([]float64, K*n)
	guess := make([]float64, K)
	for k, r := range rings {
		copy(x0[k*n:(k+1)*n], nomSol.X0)
		guess[k] = nomSol.T0 * nom.EstimatedF0() / r.EstimatedF0()
	}
	warm, errsW, err := pss.ShootAutonomousBatch(context.Background(), b, x0, pss.BatchShootOptions{
		GuessT: guess, StepsPerPeriod: spp, SettleCycles: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]float64, K)
	for k, r := range rings {
		copy(x0[k*n:(k+1)*n], r.KickStart())
		guess[k] = 1 / r.EstimatedF0()
	}
	coldSols, errsC, err := pss.ShootAutonomousBatch(context.Background(), b, x0, pss.BatchShootOptions{
		GuessT: guess, StepsPerPeriod: spp,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < K; k++ {
		if errsW[k] != nil {
			t.Fatalf("warm lane %d: %v", k, errsW[k])
		}
		if errsC[k] != nil {
			t.Fatalf("cold lane %d: %v", k, errsC[k])
		}
		cold[k] = coldSols[k].F0
		if rel := math.Abs(warm[k].F0-cold[k]) / cold[k]; rel > 1e-5 {
			t.Errorf("lane %d warm F0 %g vs cold %g (rel %g)", k, warm[k].F0, cold[k], rel)
		}
	}
}

// TestShootAutonomousBatchValidation covers structural misuse.
func TestShootAutonomousBatchValidation(t *testing.T) {
	_, b := cornerRingBatch(t, 2)
	n := b.N
	x0 := make([]float64, 2*n)
	ctx := context.Background()
	if _, _, err := pss.ShootAutonomousBatch(ctx, b, x0, pss.BatchShootOptions{GuessT: []float64{1e-5}}); err == nil {
		t.Fatal("short GuessT accepted")
	}
	if _, _, err := pss.ShootAutonomousBatch(ctx, b, x0, pss.BatchShootOptions{GuessT: []float64{1e-5, -1}}); err == nil {
		t.Fatal("negative GuessT accepted")
	}
	if _, _, err := pss.ShootAutonomousBatch(ctx, b, x0[:1], pss.BatchShootOptions{GuessT: []float64{1e-5, 1e-5}}); err == nil {
		t.Fatal("short x0 accepted")
	}
	_ = transient.Trap
}
