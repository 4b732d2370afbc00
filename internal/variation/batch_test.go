package variation_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/ringosc"
	"repro/internal/variation"
)

// TestMonteCarloBatchMatchesScalar runs the same seeded Monte Carlo through
// the warm-started batched pipeline and solves each drawn corner alone and
// cold (EvaluateEng). The drawn corners must be bit-identical; the solved
// metrics agree to solver tolerance (both paths converge the same
// periodicity residual).
func TestMonteCarloBatchMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline Monte Carlo")
	}
	const n = 3
	const seed = 11
	base := ringosc.DefaultConfig()
	params := variation.StandardParams()
	ctx := context.Background()

	batched, corners, err := variation.MonteCarloBatchEng(ctx, nil, base, params, n,
		variation.PseudoSampler{Seed: seed}, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != n || len(corners) != n {
		t.Fatalf("got %d samples / %d corners, want %d", len(batched), len(corners), n)
	}
	for i := 0; i < n; i++ {
		deltas := make([]float64, len(params))
		variation.PseudoSampler{Seed: seed}.Draw(i, deltas)
		cfg := base
		for j, prm := range params {
			if deltas[j] != batched[i].Deltas[j] {
				t.Fatalf("sample %d delta %d: drawn %v vs batched %v (corners differ)",
					i, j, deltas[j], batched[i].Deltas[j])
			}
			prm.Apply(&cfg, deltas[j])
		}
		cold, err := variation.EvaluateEng(ctx, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm, bm := cold, batched[i].Metrics
		relCheck := func(name string, s, b, tol float64) {
			if rel := math.Abs(b-s) / math.Abs(s); rel > tol {
				t.Errorf("sample %d %s: cold %g vs batched %g (rel %g)", i, name, s, b, rel)
			}
		}
		// Both paths converge the same periodicity residual, so the period
		// matches to solver tolerance. The PPV harmonics carry a sub-percent
		// numerical scatter that depends on where along the orbit the
		// converged anchor sits (re-anchoring the cold solve moves V2 by
		// the same ±0.3 %), so the harmonic-derived metrics get 1 %.
		relCheck("F0", sm.F0, bm.F0, 1e-6)
		relCheck("V1", sm.V1, bm.V1, 1e-2)
		relCheck("V2", sm.V2, bm.V2, 1e-2)
		relCheck("LockWidth", sm.LockWidth, bm.LockWidth, 1e-2)
		if corners[i].Model == nil || corners[i].PPV == nil {
			t.Fatalf("sample %d corner is missing its model chain", i)
		}
		if corners[i].Metrics != batched[i].Metrics {
			t.Fatalf("sample %d corner metrics disagree with the sample metrics", i)
		}
	}
}

// TestEvaluateBatchEngScalarFallback mixes in a corner whose topology does
// not match the nominal ring (5 stages vs 3): the batch refuses to assemble
// and every corner must transparently take the per-corner fallback,
// reproducing EvaluateEng bit for bit.
func TestEvaluateBatchEngScalarFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline evaluation")
	}
	base := ringosc.DefaultConfig()
	other := ringosc.DefaultConfig()
	other.Stages = 5
	ctx := context.Background()
	crs, err := variation.EvaluateBatch(ctx, nil, base, []ringosc.Config{base, other})
	if err != nil {
		t.Fatal(err)
	}
	want0, err := variation.EvaluateEng(ctx, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := variation.EvaluateEng(ctx, nil, other)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []variation.Metrics{want0, want1} {
		if got := crs[i].Metrics; got != want {
			t.Errorf("corner %d fell back to a different pipeline: %+v, want %+v", i, got, want)
		}
	}
}

// TestWarmCornersConvergeQuadratically: the 16 seeded corners of
// BenchmarkVariationMCBatched, warm-started in one 16-lane batch, each
// converge after 2 bordered Newton iterations. The border is the exact
// derivative of the discrete period map, so the Newton converges
// quadratically; bordered with the flow's ẋ(T), which under BE differs
// from it at first order, every corner took 3.
func TestWarmCornersConvergeQuadratically(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline Monte Carlo")
	}
	const n = 16
	_, corners, err := variation.MonteCarloBatchEng(context.Background(), nil, ringosc.DefaultConfig(),
		variation.StandardParams(), n, variation.PseudoSampler{Seed: 1}, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corners {
		if it := c.PPV.Sol.Iterations; it != 2 {
			t.Errorf("corner %d converged after %d iterations, want 2", i, it)
		}
	}
}
