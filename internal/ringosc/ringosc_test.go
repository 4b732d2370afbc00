package ringosc_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/ringosc"
	"repro/internal/transient"
	"repro/internal/wave"
)

func TestRingOscillatesAtCalibratedFrequency(t *testing.T) {
	r, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	T := 1 / r.EstimatedF0()
	res, err := transient.RunCtx(context.Background(), r.Sys, r.KickStart(), 0, 30*T, transient.Options{
		Method: transient.Trap, Step: T / 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wave.New(res.T, res.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	per, err := w.EstimatePeriod(r.Cfg.Vdd/2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f0 := 1 / per
	if f0 < 9.3e3 || f0 > 9.9e3 {
		t.Errorf("free-running f0 = %g Hz, want ≈9.6 kHz", f0)
	}
}

func TestBuildRejectsEvenStages(t *testing.T) {
	cfg := ringosc.DefaultConfig()
	cfg.Stages = 4
	if _, err := ringosc.Build(cfg); err == nil {
		t.Fatal("even-stage ring must be rejected")
	}
	cfg.Stages = 1
	if _, err := ringosc.Build(cfg); err == nil {
		t.Fatal("single-stage ring must be rejected")
	}
}

func TestLatchBuildsAndHasDNode(t *testing.T) {
	cfg := ringosc.DefaultLatchConfig(9.6e3)
	l, err := ringosc.BuildLatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Sys.N != 4 { // 3 ring nodes + d node
		t.Errorf("latch has %d free nodes, want 4", l.Sys.N)
	}
	if l.OutputIndex() != 0 {
		t.Errorf("output index = %d", l.OutputIndex())
	}
}

// TestSHILLockAtSpiceLevel validates the central SHIL claim against raw
// transient simulation: with strong SYNC the oscillator's phase against the
// f1 reference settles to a constant (lock) despite detuning; with weak
// SYNC it keeps drifting. This is the design-tools prediction (Figs. 5/7)
// checked by brute force.
func TestSHILLockAtSpiceLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-level lock test is slow")
	}
	f0 := 9596.0  // calibrated free-running frequency
	f1 := f0 + 40 // 40 Hz detuning: inside the 100 µA band, outside the 5 µA band
	runPhase := func(syncAmp float64) []wave.PhasePoint {
		cfg := ringosc.DefaultLatchConfig(f1)
		cfg.SyncAmp = syncAmp
		cfg.DAmp = 0
		cfg.EN = circuit.DC(0) // gate off: pure SYNC study
		l, err := ringosc.BuildLatch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		T1 := 1 / f1
		res, err := transient.RunCtx(context.Background(), l.Sys, l.KickStart(), 0, 120*T1, transient.Options{
			Method: transient.Trap, Step: T1 / 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		sig, err := wave.New(res.T, res.Node(l.OutputIndex()))
		if err != nil {
			t.Fatal(err)
		}
		ref := wave.FromFunc(l.ReferenceWaveform(0), 0, 120*T1, len(res.T))
		return wave.PhaseVsReference(sig, ref, l.Cfg.Ring.Vdd/2, T1)
	}
	drift := func(pts []wave.PhasePoint) float64 {
		// Phase change over the last third of the run.
		n := len(pts)
		a, b := pts[2*n/3], pts[n-1]
		return math.Abs(b.Phi - a.Phi)
	}
	locked := runPhase(100e-6)
	free := runPhase(5e-6)
	if len(locked) < 50 || len(free) < 50 {
		t.Fatal("not enough crossings")
	}
	if d := drift(locked); d > 0.05 {
		t.Errorf("100 µA SYNC: phase drifted %g cycles over the tail, want lock", d)
	}
	if d := drift(free); d < 0.2 {
		t.Errorf("5 µA SYNC: phase drifted only %g cycles, expected free-running drift", d)
	}
}

func TestLatchReferenceWaveform(t *testing.T) {
	cfg := ringosc.DefaultLatchConfig(1e3)
	l, err := ringosc.BuildLatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := l.ReferenceWaveform(0.25)
	// Peak of the reference sits at t = phase/F1.
	if math.Abs(ref(0.25e-3)-3.0) > 1e-9 {
		t.Errorf("reference peak misplaced: V(0.25 ms) = %g", ref(0.25e-3))
	}
	if math.Abs(ref(0.75e-3)-0.0) > 1e-9 {
		t.Errorf("reference trough misplaced: V(0.75 ms) = %g", ref(0.75e-3))
	}
}
