package engine

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/solver"
	"repro/internal/transient"
)

// coldCases are the oscillators the cold-path parity test extracts: the
// paper's ring, a 9-stage ring, and the D latch (whose transmission gates
// and sources evaluate through the batch's fallback kernels).
func coldCases(t *testing.T) map[string]Oscillator {
	t.Helper()
	ring, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg9 := ringosc.DefaultConfig()
	cfg9.Stages = 9
	ring9, err := ringosc.Build(cfg9)
	if err != nil {
		t.Fatal(err)
	}
	latch, err := ringosc.BuildLatch(ringosc.DefaultLatchConfig(9596))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Oscillator{"ring": ring, "ring9": ring9, "dlatch": latch}
}

// TestColdPathMatchesScalar pins the engine's one-lane batched extraction
// to the scalar pss.ShootAutonomousCtx → ppv.FromSolution pair it replaced:
// the same Newton count, f0 within 1e-12 relative, and every node's PPV
// harmonics 1–3 within 1e-12 of the node's largest of them.
//
// The harmonics are compared after removing the offset between the two
// orbits' phase origins, which the test bounds separately. The origin is
// the settle run's endpoint; both settles take SettleCycles·StepsPerPeriod
// equal steps, and on the 9-stage ring the origins still sit 2.4e-12 rad
// apart (2.8e-11 when the scalar settle accumulated its time and clipped
// its last step onto SettleCycles·T), which turns harmonic m by m times
// that angle; on the 3-stage ring and the latch the offset is ≤ 1e-15 rad.
func TestColdPathMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PSS solves skipped in -short")
	}
	ctx := context.Background()
	for name, osc := range coldCases(t) {
		t.Run(name, func(t *testing.T) {
			sol, p, err := New(Options{}).PPV(ctx, osc)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := pss.ShootAutonomousCtx(ctx, osc.System(), osc.InitialState(), pss.Options{
				GuessT: 1 / osc.EstimatedF0(), StepsPerPeriod: 1024,
			})
			if err != nil {
				t.Fatal(err)
			}
			refP, err := ppv.FromSolution(osc.System(), ref)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Iterations != ref.Iterations {
				t.Fatalf("iterations %d, scalar %d", sol.Iterations, ref.Iterations)
			}
			if e := math.Abs(sol.F0-ref.F0) / ref.F0; e > 1e-12 {
				t.Fatalf("f0 %.15g Hz, scalar %.15g Hz (rel %.2g)", sol.F0, ref.F0, e)
			}
			phi := cmplx.Phase(p.Harmonic(0, 1) / refP.Harmonic(0, 1))
			if math.Abs(phi) > 1e-11 {
				t.Fatalf("phase origins %.3g rad apart", phi)
			}
			for node := range refP.NodeSeries {
				scale := 0.0
				for m := 1; m <= 3; m++ {
					scale = math.Max(scale, cmplx.Abs(refP.Harmonic(node, m)))
				}
				for m := 1; m <= 3; m++ {
					got := p.Harmonic(node, m) * cmplx.Exp(complex(0, -float64(m)*phi))
					want := refP.Harmonic(node, m)
					if e := cmplx.Abs(got-want) / scale; e > 1e-12 {
						t.Errorf("node %d harmonic %d: %v, scalar %v (rel %.2g)", node, m, got, want, e)
					}
				}
			}
		})
	}
}

// TestColdPathGear2FallsBack: the lockstep stepper integrates BE and Trap
// only, so a Gear2 engine shoots through the scalar solve and returns its
// exact result.
func TestColdPathGear2FallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PSS solves skipped in -short")
	}
	ctx := context.Background()
	opt := pss.Options{StepsPerPeriod: 512, Method: transient.Gear2}
	r, sol, err := New(Options{PSS: opt}).RingPSS(ctx, ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt.GuessT = 1 / r.EstimatedF0()
	ref, err := pss.ShootAutonomousCtx(ctx, r.Sys, r.InitialState(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.F0 != ref.F0 || sol.Iterations != ref.Iterations {
		t.Fatalf("Gear2 engine f0 %.15g Hz (%d iterations), scalar %.15g Hz (%d)", sol.F0, sol.Iterations, ref.F0, ref.Iterations)
	}
}

// TestColdPathFallsBackOnLaneFailure: the lockstep stepper has no
// step-halving retry. On the paper's ring at 1.5 V, shot with backward Euler
// at six steps per period, the batched corrector fails in the first shooting
// period, while the scalar solve halves the failing steps and converges. The
// engine must return the scalar solve's exact result.
func TestColdPathFallsBackOnLaneFailure(t *testing.T) {
	ctx := context.Background()
	cfg := ringosc.DefaultConfig()
	cfg.Vdd = 1.5
	opt := pss.Options{StepsPerPeriod: 6, Method: transient.BE}
	r, sol, err := New(Options{PSS: opt}).RingPSS(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt.GuessT = 1 / r.EstimatedF0()

	b, err := circuit.NewBatch([]*circuit.System{r.Sys})
	if err != nil {
		t.Fatal(err)
	}
	_, errs, err := pss.ShootAutonomousBatch(ctx, b, r.InitialState(), pss.BatchShootOptions{
		GuessT: []float64{opt.GuessT}, StepsPerPeriod: opt.StepsPerPeriod, Method: opt.Method,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[0], solver.ErrNoConvergence) || errors.Is(errs[0], pss.ErrFixedPoint) {
		t.Fatalf("batched lane err = %v, want a corrector failure", errs[0])
	}

	dm := diag.New()
	ref, err := pss.ShootAutonomousCtx(diag.WithMetrics(ctx, dm), r.Sys, r.InitialState(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Get(diag.TransientRejections) == 0 {
		t.Fatal("the scalar solve converged without halving a step")
	}
	if sol.F0 != ref.F0 || sol.Iterations != ref.Iterations {
		t.Fatalf("engine f0 %.15g Hz (%d iterations), scalar %.15g Hz (%d)", sol.F0, sol.Iterations, ref.F0, ref.Iterations)
	}
}

// rcOscillator is a damped one-node RC (time constant 1 ms) posing as an
// oscillator: it has no limit cycle, only an equilibrium at 0 V. Guessed at
// its time constant and settled for the default twenty cycles it decays
// below the periodicity tolerance, so only the fixed-point check stops the
// shooting solve from reporting f0 = 1/GuessT.
type rcOscillator struct{ sys *circuit.System }

func newRCOscillator(t *testing.T) rcOscillator {
	t.Helper()
	c := circuit.New()
	c.ParasiticCap = 0
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
		&device.Capacitor{Name: "c", A: n1, B: circuit.Ground, C: 1e-6},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return rcOscillator{sys}
}

func (o rcOscillator) System() *circuit.System { return o.sys }
func (o rcOscillator) InitialState() []float64 { return []float64{1} }
func (o rcOscillator) EstimatedF0() float64    { return 1e3 }
func (o rcOscillator) OscillatorKey() (string, any) {
	return "rc", struct{ R, C float64 }{1e3, 1e-6}
}

// TestColdPathRejectsFixedPointUncached: the damped RC fails both stages
// with ErrFixedPoint, straight from the batched solve (one Newton solve per
// request, no scalar rerun), and a failed solve is never cached — the
// second request is another miss.
func TestColdPathRejectsFixedPointUncached(t *testing.T) {
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)
	e := New(Options{})
	osc := newRCOscillator(t)
	for i := 0; i < 2; i++ {
		if _, err := e.PSS(ctx, osc); !errors.Is(err, pss.ErrFixedPoint) || !errors.Is(err, solver.ErrNoConvergence) {
			t.Fatalf("request %d: PSS err = %v, want ErrFixedPoint", i, err)
		}
	}
	if n := dm.Get(diag.NewtonSolves); n != 2 {
		t.Fatalf("two failed requests ran %d shooting solves, want 2", n)
	}
	if st := e.Stats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("failed solves were cached: %+v", st)
	}
	if _, _, err := e.PPV(ctx, osc); !errors.Is(err, solver.ErrNoConvergence) {
		t.Fatalf("PPV err = %v, want ErrNoConvergence", err)
	}
}

// TestColdPPVNilSolution: the batched extractor skips nil lanes, so without
// its guard ColdPPV would return a nil PPV and no error.
func TestColdPPVNilSolution(t *testing.T) {
	if p, err := ColdPPV(context.Background(), newRCOscillator(t), nil); p != nil || err == nil {
		t.Fatalf("ColdPPV(nil) = (%v, %v), want an error", p, err)
	}
}
