package variation_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/ringosc"
	"repro/internal/variation"
)

func TestEvaluateNominal(t *testing.T) {
	m, err := variation.EvaluateEng(context.Background(), nil, ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.F0 < 9.3e3 || m.F0 > 9.9e3 {
		t.Errorf("nominal f0 = %g", m.F0)
	}
	if m.LockWidth <= 0 || m.V2 <= 0 {
		t.Errorf("metrics not positive: %+v", m)
	}
}

func TestSensitivitiesPhysicalSigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline 11 times")
	}
	sens, err := variation.SensitivitiesEng(context.Background(), nil, ringosc.DefaultConfig(), variation.StandardParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]variation.Sensitivity{}
	for _, s := range sens {
		byName[s.Param] = s
	}
	// Physics: stronger NMOS speeds the ring up; larger load slows it down.
	if byName["beta_n"].DF0 <= 0 {
		t.Errorf("dF0/dbeta_n = %g, want > 0", byName["beta_n"].DF0)
	}
	if byName["cload"].DF0 >= 0 {
		t.Errorf("dF0/dcload = %g, want < 0", byName["cload"].DF0)
	}
	// Higher NMOS threshold slows the ring.
	if byName["vt0_n"].DF0 >= 0 {
		t.Errorf("dF0/dvt0_n = %g, want < 0", byName["vt0_n"].DF0)
	}
	// Sensitivities are O(σ)-scale relative changes, not blow-ups.
	for _, s := range sens {
		for _, d := range []float64{s.DF0, s.DV1, s.DV2, s.DLockWidth} {
			if math.Abs(d) > 1.0 {
				t.Errorf("%s: implausible sensitivity %g", s.Param, d)
			}
		}
	}
}

func TestMonteCarloReproducibleAndSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo runs the pipeline repeatedly")
	}
	base := ringosc.DefaultConfig()
	params := variation.StandardParams()
	a, _, err := variation.MonteCarloBatchEng(context.Background(), nil, base, params, 10, variation.PseudoSampler{Seed: 7}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := variation.MonteCarloBatchEng(context.Background(), nil, base, params, 10, variation.PseudoSampler{Seed: 7}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Metrics.F0 != b[i].Metrics.F0 {
			t.Fatal("Monte Carlo must be reproducible for a fixed seed")
		}
	}
	st := variation.Summarize(a)
	if st.RelStdF0 <= 0.001 || st.RelStdF0 > 0.5 {
		t.Errorf("f0 spread %g implausible for ~10%% device spreads", st.RelStdF0)
	}
	if st.MeanF0 < 8e3 || st.MeanF0 > 11.5e3 {
		t.Errorf("mean f0 = %g", st.MeanF0)
	}
	// Designer margin: the SYNC needed to cover the worst corner must be a
	// sane current (µA–mA scale).
	nom, err := variation.EvaluateEng(context.Background(), nil, base)
	if err != nil {
		t.Fatal(err)
	}
	worst, req := variation.WorstCaseDetuning(a, nom.F0, nom.V2)
	if worst <= 0 {
		t.Error("worst-case detuning must be positive")
	}
	if req <= 0 || req > 50e-3 {
		t.Errorf("required SYNC %g A implausible", req)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := variation.Summarize(nil)
	if st.MeanF0 != 0 {
		t.Error("empty summary must be zero")
	}
}
