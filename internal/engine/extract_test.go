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

// TestColdPathMatchesScalar pins the engine's extraction to the
// single-circuit pss.ShootAutonomousCtx → ppv.FromSolutionCtx pair from the
// oscillator's initial state and estimated period at 1,024 steps per
// period: the same Newton count, f0 and raw PPV harmonics, bit for bit.
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
			refP, err := ppv.FromSolutionCtx(ctx, osc.System(), ref)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Iterations != ref.Iterations || sol.F0 != ref.F0 {
				t.Fatalf("f0 %.17g Hz after %d iterations, direct solve %.17g Hz after %d", sol.F0, sol.Iterations, ref.F0, ref.Iterations)
			}
			for node := range refP.NodeSeries {
				for m := 0; m <= ppv.MaxHarmonics; m++ {
					if got, want := p.Harmonic(node, m), refP.Harmonic(node, m); got != want {
						t.Fatalf("node %d harmonic %d: %v, direct extraction %v", node, m, got, want)
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

// TestColdPathGear2: a Gear2 engine shoots on Gear2 lanes (a BE first
// step, then BDF2) and converges in 2 iterations at 512 steps per period
// to 9581.2264511443591 Hz. (Bordered with ẋ(T), the Newton stopped at
// 9581.2264511266803 Hz, 1.8e-12 away, after as many.)
func TestColdPathGear2(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PSS solves skipped in -short")
	}
	const wantF0 = 9581.2264511443591
	opt := pss.Options{StepsPerPeriod: 512, Method: transient.Gear2}
	_, sol, err := New(Options{PSS: opt}).RingPSS(context.Background(), ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(sol.F0-wantF0) / wantF0; e > 1e-12 || sol.Iterations != 2 {
		t.Fatalf("Gear2 engine f0 %.17g Hz (rel %.2g) after %d iterations, want %.17g Hz after 2", sol.F0, e, sol.Iterations, wantF0)
	}
}

// TestColdPathHalvesFailingStep: on the paper's ring at 1.2 V, shot with
// backward Euler at six steps per period, the lane's corrector fails at
// full steps in a shooting period. The lane retakes those steps in halves
// and converges, through the engine, to within 1e-7 of the 845.89847882654499
// Hz the scalar solve, which halved its step for the rest of each run,
// returned. (The input comes from a scan of stages × Vdd × steps per period
// × BE/Trap for cases where only a solve that halves converges.)
func TestColdPathHalvesFailingStep(t *testing.T) {
	const wantF0 = 845.89847882654499
	cfg := ringosc.DefaultConfig()
	cfg.Vdd = 1.2
	dm := diag.New()
	_, sol, err := New(Options{PSS: pss.Options{StepsPerPeriod: 6, Method: transient.BE}}).RingPSS(diag.WithMetrics(context.Background(), dm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Get(diag.TransientRejections) == 0 {
		t.Fatal("the solve converged without halving a step")
	}
	if e := math.Abs(sol.F0-wantF0) / wantF0; e > 1e-7 {
		t.Fatalf("f0 %.17g Hz, %.2g from %.17g Hz", sol.F0, e, wantF0)
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
// with ErrFixedPoint (one Newton solve per request), and a failed solve is
// never cached — the second request is another miss.
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
// a guard ColdPPV would return a nil PPV and no error.
func TestColdPPVNilSolution(t *testing.T) {
	if p, err := ColdPPV(context.Background(), newRCOscillator(t), nil); p != nil || err == nil {
		t.Fatalf("ColdPPV(nil) = (%v, %v), want an error", p, err)
	}
}

// TestColdExtractionIndependentOfSettle: the phase origin is a property of
// the circuit (node 0 rising through mid-rail), so cold extractions that
// settled differently — 20, 27 or 40 cycles, the estimated period guess or
// 5 % longer, the kick start or a perturbed one — return the same f0 and the same raw PPV harmonics 1–3 on every
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
						x0 := osc.InitialState()
						if perturb {
							for i := range x0 {
								x0[i] += 0.1 * float64(i%3-1)
							}
						}
						opt := pss.Options{GuessT: guess / osc.EstimatedF0(), StepsPerPeriod: 1024, SettleCycles: settle}
						sol, err := pss.ShootAutonomousCtx(ctx, sys, x0, opt)
						if err != nil {
							t.Fatal(err)
						}
						p, err := ppv.FromSolutionCtx(context.Background(), sys, sol)
						if err != nil {
							t.Fatal(err)
						}
						if ref == nil {
							refF0, ref = sol.F0, p
							continue
						}
						what := fmt.Sprintf("settle %d, guess ×%g, perturbed %v", settle, guess, perturb)
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
		})
	}
}
