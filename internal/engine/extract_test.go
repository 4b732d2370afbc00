package engine

import (
	"context"
	"errors"
	"fmt"
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

// coldCases are the oscillators the cold-path tests extract: the paper's
// ring, its 2N1P variant and a 9-stage ring.
func coldCases(t *testing.T) map[string]Oscillator {
	t.Helper()
	cfg9 := ringosc.DefaultConfig()
	cfg9.Stages = 9
	out := map[string]Oscillator{}
	for name, cfg := range map[string]ringosc.Config{
		"ring": ringosc.DefaultConfig(), "ring2n1p": ringosc.Config2N1P(), "ring9": cfg9,
	} {
		r, err := ringosc.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = r
	}
	return out
}

// TestColdPathMatchesScalar pins the engine's one-lane batched extraction
// to the scalar pss.ShootAutonomousCtx → ppv.FromSolution pair it replaced:
// the same Newton count, f0 within 1e-12 relative, and every node's raw PPV
// harmonics 1–3 within 1e-12 of the node's largest of them. Both solves
// start from the phase origin their shared search found on the same coarse
// settle, so no origin offset is removed before comparing.
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
			for node := range refP.NodeSeries {
				scale := 0.0
				for m := 1; m <= 3; m++ {
					scale = math.Max(scale, cmplx.Abs(refP.Harmonic(node, m)))
				}
				for m := 1; m <= 3; m++ {
					got, want := p.Harmonic(node, m), refP.Harmonic(node, m)
					if e := cmplx.Abs(got-want) / scale; e > 1e-12 {
						t.Errorf("node %d harmonic %d: %v, scalar %v (rel %.2g)", node, m, got, want, e)
					}
				}
			}
		})
	}
}

// TestColdPSSConvergesOnRingGrid: the cold solve converges on every ring of
// 3/5/9 stages × Vdd 1.2/2/3/5 V × 1N1P/2N1P, and the analytic estimate
// every cold solve starts from reads within [0.85, 1.2] of the solved f0 on
// each (0.867–1.172 measured). The settle and its phase search are sized in
// periods of that estimate: when it read 2.0–4.4× f0, the search window
// spanned a quarter to half a real cycle, and the three 1.2 V 2N1P rings
// failed with ErrNoPhaseCrossing although they oscillate.
func TestColdPSSConvergesOnRingGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PSS solves skipped in -short")
	}
	const lo, hi = 0.85, 1.2
	ctx := context.Background()
	for _, stages := range []int{3, 5, 9} {
		for _, vdd := range []float64{1.2, 2, 3, 5} {
			for _, mult := range []float64{1, 2} {
				cfg := ringosc.DefaultConfig()
				cfg.Stages, cfg.Vdd, cfg.NMOSMult = stages, vdd, mult
				r, err := ringosc.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%d stages, %g V, %gN1P", stages, vdd, mult)
				sol, err := ColdPSS(ctx, r, pss.Options{StepsPerPeriod: 1024})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if q := r.EstimatedF0() / sol.F0; !(q >= lo && q <= hi) {
					t.Errorf("%s: EstimatedF0 %.4g Hz is %.3f× the solved f0 %.4g Hz, want within [%g, %g]", name, r.EstimatedF0(), q, sol.F0, lo, hi)
				}
			}
		}
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
// step-halving retry. On the paper's ring at 1.2 V, shot with backward Euler
// at six steps per period, the batched corrector fails in a shooting period,
// while the scalar solve halves the failing step and converges. The engine
// must return the scalar solve's exact result. (The input comes from a scan
// of stages × Vdd × steps per period × BE/Trap for cases where only the
// scalar solve converges.)
func TestColdPathFallsBackOnLaneFailure(t *testing.T) {
	ctx := context.Background()
	cfg := ringosc.DefaultConfig()
	cfg.Vdd = 1.2
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
// oscillator: it has no limit cycle, only an equilibrium at 0 V, which it
// relaxes toward monotonically over the settle. Only the fixed-point check
// stops the shooting solve from reporting f0 = 1/GuessT.
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

// TestColdExtractionIndependentOfSettle: the phase origin is a property of
// the circuit (node 0 rising through mid-rail), so cold extractions that
// settled differently — 20, 27 or 40 cycles, the estimated period guess or
// 5 % longer, the kick start or a perturbed one, the batched or the scalar
// solve — return the same f0 and the same raw PPV harmonics 1–3 on every
// node, compared without aligning origins. What is left is the shooting
// tolerance's (1e-7 V) effect on the converged orbit: against the first
// extraction, f0 moves by at most 4.9e-9 relative and a harmonic by 2.1e-8
// of its node's largest (2N1P ring). When the origin was the settle's
// endpoint the same extractions moved f0 by up to 1.0e-8 and turned the
// harmonics by up to a half turn (a difference of 2). The bounds hold the
// measured spread with about 3× to spare.
func TestColdExtractionIndependentOfSettle(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PSS solves skipped in -short")
	}
	const f0Bound, harmBound = 1.5e-8, 6e-8
	ctx := context.Background()
	for name, osc := range coldCases(t) {
		t.Run(name, func(t *testing.T) {
			sys := osc.System()
			var refF0 float64
			var ref *ppv.PPV
			for _, settle := range []int{20, 27, 40} {
				for _, guess := range []float64{1, 1.05} {
					for _, perturb := range []bool{false, true} {
						for _, batched := range []bool{true, false} {
							x0 := osc.InitialState()
							if perturb {
								for i := range x0 {
									x0[i] += 0.1 * float64(i%3-1)
								}
							}
							opt := pss.Options{GuessT: guess / osc.EstimatedF0(), StepsPerPeriod: 1024, SettleCycles: settle}
							sol, err := shootColdOnce(ctx, sys, x0, opt, batched)
							if err != nil {
								t.Fatal(err)
							}
							p, err := ppv.FromSolution(sys, sol)
							if err != nil {
								t.Fatal(err)
							}
							if ref == nil {
								refF0, ref = sol.F0, p
								continue
							}
							what := fmt.Sprintf("settle %d, guess ×%g, perturbed %v, batched %v", settle, guess, perturb, batched)
							if e := math.Abs(sol.F0-refF0) / refF0; e > f0Bound {
								t.Errorf("%s: f0 %.15g Hz, reference %.15g Hz (rel %.2g)", what, sol.F0, refF0, e)
							}
							for node := range ref.NodeSeries {
								scale := 0.0
								for m := 1; m <= 3; m++ {
									scale = math.Max(scale, cmplx.Abs(ref.Harmonic(node, m)))
								}
								for m := 1; m <= 3; m++ {
									if e := cmplx.Abs(p.Harmonic(node, m)-ref.Harmonic(node, m)) / scale; e > harmBound {
										t.Errorf("%s: node %d harmonic %d off by %.2g of the node's largest", what, node, m, e)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// shootColdOnce runs one cold autonomous solve through the one-lane batch or
// the scalar path.
func shootColdOnce(ctx context.Context, sys *circuit.System, x0 []float64, opt pss.Options, batched bool) (*pss.Solution, error) {
	if !batched {
		return pss.ShootAutonomousCtx(ctx, sys, x0, opt)
	}
	b, err := circuit.NewBatch([]*circuit.System{sys})
	if err != nil {
		return nil, err
	}
	sols, errs, err := pss.ShootAutonomousBatch(ctx, b, x0, pss.BatchShootOptions{
		GuessT: []float64{opt.GuessT}, StepsPerPeriod: opt.StepsPerPeriod, SettleCycles: opt.SettleCycles,
	})
	if err != nil {
		return nil, err
	}
	return sols[0], errs[0]
}
