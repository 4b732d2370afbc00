package gae_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gae"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

var (
	fixOnce sync.Once
	fixPPV  *ppv.PPV
	fixErr  error
)

// ringPPV extracts the paper's 1N1P ring PPV once per test binary.
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

func TestGMatchesBruteForceAveraging(t *testing.T) {
	p := ringPPV(t)
	f1 := p.F0 * 1.001
	check := func(ampRaw, harmRaw, phaseRaw, dphiRaw uint8) bool {
		amp := 20e-6 + float64(ampRaw)/255*180e-6
		harm := 1 + int(harmRaw)%3
		phase := float64(phaseRaw) / 255
		dphi := float64(dphiRaw) / 255
		m := gae.NewModel(p, f1, gae.Injection{Node: 0, Amp: amp, Harmonic: harm, Phase: phase})
		got := m.G(dphi)
		want := m.BruteForceG(dphi, 200, 64)
		scale := math.Abs(amp * p.NodeSeries[0].Magnitude(harm))
		if scale == 0 {
			return true
		}
		return math.Abs(got-want) < 0.05*scale+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSHILBistability(t *testing.T) {
	p := ringPPV(t)
	// Strong SYNC at 2·f1, f1 = f0: the latch must exhibit exactly two
	// stable locks ~0.5 cycles apart (the paper's phase-logic 0 and 1).
	m := gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2})
	eq := m.Equilibria()
	if len(eq) != 4 {
		t.Fatalf("expected 4 equilibria (paper Fig. 5), got %d", len(eq))
	}
	d0, d1, err := m.SHILPhases()
	if err != nil {
		t.Fatal(err)
	}
	if sep := gae.CircularDistance(d0, d1); math.Abs(sep-0.5) > 0.01 {
		t.Errorf("stable SHIL phases separated by %g cycles, want 0.5", sep)
	}
	// Stability alternates around the circle.
	for i, e := range eq {
		if e.Stable != (eq[(i+1)%4].Stable == false) {
			t.Errorf("stability does not alternate at equilibrium %d", i)
		}
	}
}

func TestSHILThreshold(t *testing.T) {
	p := ringPPV(t)
	// With detuning, small SYNC fails to lock and large SYNC locks —
	// Fig. 5's "A larger than threshold gives four intersections".
	f1 := p.F0 * 1.002
	weak := gae.NewModel(p, f1, gae.Injection{Node: 0, Amp: 1e-7, Harmonic: 2})
	if weak.WillLock() {
		t.Error("1e-7 A SYNC should not lock at 0.2% detuning")
	}
	strong := weak.With()
	strong.Injections[0].Amp = 200e-6
	if !strong.WillLock() {
		t.Error("200 µA SYNC should lock at 0.2% detuning")
	}
}

func TestLockingConeLinearInAmplitude(t *testing.T) {
	p := ringPPV(t)
	// Pure m=2 injection: band halfwidth = A·|V2|·f0, so the cone is linear
	// in A (Fig. 7's V shape).
	m := gae.NewModel(p, p.F0)
	amps := []float64{50e-6, 100e-6, 200e-6}
	pts, err := m.SweepSyncAmplitudeCtx(context.Background(), 0, 2, amps, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(pts))
	for i, pt := range pts {
		if !pt.Locks {
			t.Fatalf("no lock at amp %g", pt.Amp)
		}
		w[i] = pt.F1Hi - pt.F1Lo
	}
	if math.Abs(w[1]/w[0]-2) > 0.05 || math.Abs(w[2]/w[1]-2) > 0.05 {
		t.Errorf("widths %v not linear in amplitude", w)
	}
	wantHalf := 100e-6 * p.NodeSeries[0].Magnitude(2) * p.F0
	if math.Abs(w[1]/2-wantHalf) > 0.05*wantHalf {
		t.Errorf("halfwidth at 100µA = %g, want %g", w[1]/2, wantHalf)
	}
}

func TestDInputDestroysOneLock(t *testing.T) {
	p := ringPPV(t)
	// Fig. 10: with SYNC fixed, raising the fundamental-frequency D input
	// beyond a threshold removes one of the two stable states, leaving a
	// single lock controlled by D. The transition must be monotone.
	thresholdFor := func(syncAmp float64) float64 {
		base := gae.NewModel(p, p.F0,
			gae.Injection{Name: "SYNC", Node: 0, Amp: syncAmp, Harmonic: 2},
			gae.Injection{Name: "D", Node: 0, Amp: 0, Harmonic: 1},
		)
		amps := gae.Linspace(0, 4*syncAmp, 161)
		pts, err := base.SweepInjectionAmplitudeCtx(context.Background(), 1, amps, 1)
		if err != nil {
			t.Fatal(err)
		}
		seenOne := false
		threshold := math.Inf(1)
		for _, pt := range pts {
			n := len(pt.Stable)
			if n == 0 {
				t.Fatalf("no stable lock at D=%g", pt.Param)
			}
			if n == 1 && !seenOne {
				threshold = pt.Param
				seenOne = true
			}
			if seenOne && n > 1 {
				t.Fatalf("bistability returned at D=%g after vanishing at %g", pt.Param, threshold)
			}
		}
		if !seenOne {
			t.Fatalf("one stable state never vanished up to %g A D", 4*syncAmp)
		}
		return threshold
	}
	t100 := thresholdFor(100e-6)
	t200 := thresholdFor(200e-6)
	if t100 <= 0 {
		t.Fatal("zero threshold: D would always control the latch, SHIL storage impossible")
	}
	// The saddle-node condition balances A_D·|V1| against A_SYNC·|V2|, so
	// the vanishing threshold must scale linearly with SYNC drive.
	if ratio := t200 / t100; math.Abs(ratio-2) > 0.15 {
		t.Errorf("threshold(200µA)/threshold(100µA) = %g, want ≈2", ratio)
	}
}

func TestPhaseErrorGrowsWithDetuning(t *testing.T) {
	p := ringPPV(t)
	m := gae.NewModel(p, p.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2})
	d0, d1, err := m.SHILPhases()
	if err != nil {
		t.Fatal(err)
	}
	refs := []float64{d0, d1}
	lo, hi := m.LockingBand()
	f1s := gae.Linspace(lo+(hi-lo)*0.02, hi-(hi-lo)*0.02, 21)
	pts, err := m.SweepPhaseErrorCtx(context.Background(), f1s, refs, 1)
	if err != nil {
		t.Fatal(err)
	}
	center := pts[len(pts)/2]
	edgeLo, edgeHi := pts[0], pts[len(pts)-1]
	maxOf := func(p gae.PhaseErrorPoint) float64 {
		m := 0.0
		for _, e := range p.Errors {
			m = math.Max(m, e)
		}
		return m
	}
	if len(edgeLo.Errors) == 0 || len(edgeHi.Errors) == 0 {
		t.Fatal("expected lock across the interior of the locking band")
	}
	if maxOf(center) > 0.01 {
		t.Errorf("phase error at band center = %g, want ≈0", maxOf(center))
	}
	// Near the band edges the lock phase slides toward the saddle: error
	// approaches 1/8 cycle for a cos-shaped g (paper Fig. 8 shows growth).
	if maxOf(edgeLo) < 3*maxOf(center)+0.02 || maxOf(edgeHi) < 3*maxOf(center)+0.02 {
		t.Errorf("phase error at edges (%g, %g) does not grow from center %g",
			maxOf(edgeLo), maxOf(edgeHi), maxOf(center))
	}
}

func TestTransientConvergesToStableLock(t *testing.T) {
	p := ringPPV(t)
	m := gae.NewModel(p, p.F0*1.0005, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2})
	st := m.StableEquilibria()
	if len(st) != 2 {
		t.Fatalf("want 2 stable locks, got %d", len(st))
	}
	// Many initial conditions; each must converge to one of the two locks.
	T1 := 1 / m.F1
	for _, x0 := range []float64{0.05, 0.3, 0.55, 0.8} {
		res := m.TransientCtx(context.Background(), x0, 0, 3000*T1, T1)
		final := math.Mod(math.Mod(res.Final(), 1)+1, 1)
		ok := false
		for _, e := range st {
			if gae.CircularDistance(final, e.Dphi) < 1e-3 {
				ok = true
			}
		}
		if !ok {
			t.Errorf("x0=%g settled at %g, not at a stable lock %v", x0, final, st)
		}
	}
}

func TestAveragedVsNonAveragedTransient(t *testing.T) {
	// Ablation: the averaged GAE must track the unaveraged eq.-(13) model
	// up to the fast ripple.
	p := ringPPV(t)
	m := gae.NewModel(p, p.F0,
		gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2},
		gae.Injection{Name: "D", Node: 0, Amp: 120e-6, Harmonic: 1, Phase: 0.3},
	)
	T1 := 1 / m.F1
	x0 := 0.1
	avg := m.TransientCtx(context.Background(), x0, 0, 800*T1, T1)
	raw := m.TransientNonAveragedCtx(context.Background(), x0, 0, 800*T1, 64)
	// Compare final settled phases.
	d := gae.CircularDistance(math.Mod(avg.Final()+10, 1), math.Mod(raw.Final()+10, 1))
	if d > 0.02 {
		t.Errorf("averaged final %g vs non-averaged %g differ by %g cycles",
			avg.Final(), raw.Final(), d)
	}
}

// TestNonAveragedTransientGrid: N reference cycles at 64 steps per cycle
// take exactly 64·N steps on the grid k·h and end exactly at t1 — no
// trailing sliver step from accumulated rounding, at any f1.
func TestNonAveragedTransientGrid(t *testing.T) {
	p := ringPPV(t)
	for _, c := range []struct {
		f1     float64
		cycles int
	}{{9581.5, 40}, {9600, 40}, {10000, 40}, {11000, 40}, {12500, 40}, {9600, 1}, {9600, 3}} {
		m := gae.NewModel(p, c.f1)
		T1 := 1 / c.f1
		t1 := float64(c.cycles) * T1
		res := m.TransientNonAveragedCtx(context.Background(), 0.1, 0, t1, 64)
		if got, want := len(res.T)-1, 64*c.cycles; got != want {
			t.Errorf("f1 = %g, %d cycles: %d steps, want %d", c.f1, c.cycles, got, want)
			continue
		}
		if last := res.T[len(res.T)-1]; last != t1 {
			t.Errorf("f1 = %g, %d cycles: ends at %v, want t1 = %v", c.f1, c.cycles, last, t1)
		}
		for k, tk := range res.T[:len(res.T)-1] {
			if want := float64(k) * (T1 / 64); tk != want {
				t.Fatalf("f1 = %g: T[%d] = %v, want k·h = %v", c.f1, k, tk, want)
			}
		}
	}
}

func TestSettleTimeMonotoneInDrive(t *testing.T) {
	// Fig. 12's headline: stronger D flips the bit faster.
	p := ringPPV(t)
	T1 := 1 / p.F0
	settle := func(amp float64) float64 {
		m := gae.NewModel(p, p.F0,
			gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2},
			gae.Injection{Name: "D", Node: 0, Amp: amp, Harmonic: 1, Phase: 0.1},
		)
		res := m.TransientCtx(context.Background(), 0.62, 0, 5000*T1, T1)
		return res.SettleTime(0.01)
	}
	s100 := settle(100e-6)
	s150 := settle(150e-6)
	s200 := settle(200e-6)
	if !(s200 < s150 && s150 < s100) {
		t.Errorf("settle times not monotone: 100µA=%g 150µA=%g 200µA=%g", s100, s150, s200)
	}
}

func TestLinspace(t *testing.T) {
	v := gae.Linspace(1, 3, 5)
	want := []float64{1, 1.5, 2, 2.5, 3}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-15 {
			t.Fatalf("Linspace = %v", v)
		}
	}
	if v := gae.Linspace(7, 9, 1); len(v) != 1 || v[0] != 7 {
		t.Fatalf("Linspace n=1 = %v", v)
	}
}
