package phasemacro_test

import (
	"context"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/gae"
	"repro/internal/phasemacro"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

var (
	fixOnce sync.Once
	fixPPV  *ppv.PPV
	fixErr  error
)

func ringPPV(t testing.TB) *ppv.PPV {
	t.Helper()
	fixOnce.Do(func() {
		r, err := ringosc.Build(ringosc.DefaultConfig())
		if err != nil {
			fixErr = err
			return
		}
		sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
			GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 1024,
		})
		if err != nil {
			fixErr = err
			return
		}
		fixPPV, fixErr = ppv.FromSolutionCtx(context.Background(), r.Sys, sol)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixPPV
}

func TestCalibratePlacesLocksAtCanonicalPhases(t *testing.T) {
	p := ringPPV(t)
	l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 100e-6}
	cal, err := phasemacro.Calibrate(l, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	m := gae.NewModel(p, p.F0, gae.Injection{Node: 0, Amp: 100e-6, Harmonic: 2, Phase: cal.SyncPhase})
	st := m.StableEquilibria()
	if len(st) != 2 {
		t.Fatalf("calibrated SYNC yields %d stable locks, want 2", len(st))
	}
	ok0, ok5 := false, false
	for _, e := range st {
		if gae.CircularDistance(e.Dphi, 0) < 1e-3 {
			ok0 = true
		}
		if gae.CircularDistance(e.Dphi, 0.5) < 1e-3 {
			ok5 = true
		}
	}
	if !ok0 || !ok5 {
		t.Errorf("locks at %v, want {0, 0.5}", st)
	}
}

func TestSingleLatchFollowsDrive(t *testing.T) {
	p := ringPPV(t)
	l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 100e-6, F0Shift: 3}
	cal, err := phasemacro.Calibrate(l, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []bool{true, false} {
		sys := &phasemacro.System{
			F1: p.F0, Latches: []*phasemacro.Latch{l}, Cal: cal,
			Drive: func(tt float64, outs, drives []complex128) {
				drives[0] = cal.LogicPhasor(target, cmplx.Abs(cal.OutPhasor0))
			},
		}
		// Start from the opposite state.
		x0 := 0.0
		if target {
			x0 = 0.5
		}
		res, err := sys.Run([]float64{x0}, 0, 400/p.F0, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.FinalBits()[0]; got != target {
			t.Errorf("latch driven toward %v ended at %v (Δφ=%g)",
				target, got, res.Dphi[0][len(res.T)-1])
		}
	}
}

func TestLatchHoldsWithoutDrive(t *testing.T) {
	p := ringPPV(t)
	l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 100e-6, F0Shift: 3}
	cal, err := phasemacro.Calibrate(l, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	sys := &phasemacro.System{
		F1: p.F0, Latches: []*phasemacro.Latch{l}, Cal: cal,
		Drive: func(tt float64, outs, drives []complex128) {},
	}
	for _, start := range []float64{0.02, 0.52} {
		res, err := sys.Run([]float64{start}, 0, 500/p.F0, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		final := math.Mod(math.Mod(res.Dphi[0][len(res.T)-1], 1)+1, 1)
		want := 0.0
		if start > 0.25 {
			want = 0.5
		}
		if gae.CircularDistance(final, want) > 0.02 {
			t.Errorf("start %g drifted to %g, want hold near %g", start, final, want)
		}
	}
}

func TestRunRejectsWrongInitialLength(t *testing.T) {
	p := ringPPV(t)
	l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 100e-6}
	cal, _ := phasemacro.Calibrate(l, 10e3)
	sys := &phasemacro.System{F1: p.F0, Latches: []*phasemacro.Latch{l}, Cal: cal,
		Drive: func(float64, []complex128, []complex128) {}}
	if _, err := sys.Run([]float64{0, 0}, 0, 1e-3, 0.25); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestReconstructOutputMatchesPSSWaveform(t *testing.T) {
	p := ringPPV(t)
	l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 100e-6}
	cal, err := phasemacro.Calibrate(l, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	sys := &phasemacro.System{
		F1: p.F0, Latches: []*phasemacro.Latch{l}, Cal: cal,
		Drive: func(float64, []complex128, []complex128) {},
	}
	res, err := sys.Run([]float64{0}, 0, 5/p.F0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ts, vs := sys.ReconstructOutput(res, 0, 64)
	if len(ts) != len(vs) || len(ts) < 5*64 {
		t.Fatalf("reconstruction size %d", len(ts))
	}
	// With Δφ = 0 held, the reconstruction equals the PSS waveform sampled
	// at f1·t (f1 = f0 here).
	series := p.Sol.NodeSeries(0, 16)
	for i := 0; i < len(ts); i += 17 {
		want := series.Eval(p.F0 * ts[i])
		if math.Abs(vs[i]-want) > 1e-6 {
			t.Fatalf("reconstruction at t=%g: %g, want %g", ts[i], vs[i], want)
		}
	}
}

func TestBitDecoding(t *testing.T) {
	r := &phasemacro.Result{
		T:    []float64{0},
		Dphi: [][]float64{{0.1}, {0.45}, {0.9}, {-0.05}, {1.51}},
	}
	want := []bool{true, false, true, true, false}
	for i, w := range want {
		if r.Bit(i, 0) != w {
			t.Errorf("Bit(%d) = %v, want %v (Δφ=%g)", i, r.Bit(i, 0), w, r.Dphi[i][0])
		}
	}
}

// TestPhaseMacroMatchesGAETransient cross-checks the multi-latch engine
// against the scalar GAE transient for a single latch under constant drive.
func TestPhaseMacroMatchesGAETransient(t *testing.T) {
	p := ringPPV(t)
	l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 100e-6}
	cal, err := phasemacro.Calibrate(l, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	amp := cmplx.Abs(cal.OutPhasor0)
	driveP := cal.LogicPhasor(true, amp)
	inj := cal.Coupling * driveP
	sys := &phasemacro.System{
		F1: p.F0, Latches: []*phasemacro.Latch{l}, Cal: cal,
		Drive: func(tt float64, outs, drives []complex128) { drives[0] = driveP },
	}
	x0 := 0.3
	res, err := sys.Run([]float64{x0}, 0, 200/p.F0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent scalar GAE.
	m := gae.NewModel(p, p.F0,
		gae.Injection{Node: 0, Amp: 100e-6, Harmonic: 2, Phase: cal.SyncPhase},
		gae.Injection{Node: 0, Amp: cmplx.Abs(inj), Harmonic: 1, Phase: cmplx.Phase(inj) / (2 * math.Pi)},
	)
	ref := m.TransientCtx(context.Background(), x0, 0, 200/p.F0, 1/p.F0)
	// Compare at several times.
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		tt := frac * 200 / p.F0
		var a, b float64
		for i, tv := range res.T {
			if tv <= tt {
				a = res.Dphi[0][i]
			}
		}
		for i, tv := range ref.T {
			if tv <= tt {
				b = ref.Dphi[i]
			}
		}
		if math.Abs(a-b) > 0.01 {
			t.Errorf("t=%g: phasemacro %g vs GAE %g", tt, a, b)
		}
	}
}
