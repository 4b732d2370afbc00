// Benchmark harness: one benchmark per evaluation figure of the paper (see
// DESIGN.md's per-experiment index) plus the efficiency comparison the paper
// claims in Secs. 2/4.3 and ablation benches for the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package phlogon_test

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"runtime"
	"testing"

	phlogon "repro"
	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/figs"
	"repro/internal/gae"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/noise"
	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/solver"
	"repro/internal/transient"
	"repro/internal/variation"
)

// shared context: PSS + PPV extraction happens once, figures re-run per
// iteration (the figure computation is what each bench measures).
var benchCtx = figs.New("")

func benchFig(b *testing.B, fn func() (*figs.Result, error)) {
	b.Helper()
	benchFigOn(b, benchCtx, fn)
}

func benchFigOn(b *testing.B, c *figs.Context, fn func() (*figs.Result, error)) {
	b.Helper()
	// Prime the shared PPVs outside the timed region.
	if _, _, _, err := c.Ring1(); err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := c.Ring2(); err != nil {
		b.Fatal(err)
	}
	warmUp(b, func() error { _, err := fn(); return err })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04PSS(b *testing.B)           { benchFig(b, benchCtx.Fig04) }
func BenchmarkFig05GAECurves(b *testing.B)     { benchFig(b, benchCtx.Fig05) }
func BenchmarkFig06PPVCompare(b *testing.B)    { benchFig(b, benchCtx.Fig06) }
func BenchmarkFig07LockingRange(b *testing.B)  { benchFig(b, benchCtx.Fig07) }
func BenchmarkFig08PhaseError(b *testing.B)    { benchFig(b, benchCtx.Fig08) }
func BenchmarkFig10DLatchCurves(b *testing.B)  { benchFig(b, benchCtx.Fig10) }
func BenchmarkFig11DSweep(b *testing.B)        { benchFig(b, benchCtx.Fig11) }
func BenchmarkFig12FlipTransient(b *testing.B) { benchFig(b, benchCtx.Fig12) }
func BenchmarkFig14SRLatch(b *testing.B)       { benchFig(b, benchCtx.Fig14) }
func BenchmarkFig16SerialAdder(b *testing.B)   { benchFig(b, benchCtx.Fig16) }
func BenchmarkFig17SpiceVsGAE(b *testing.B)    { benchFig(b, benchCtx.Fig17) }
func BenchmarkFig19FlipFlop(b *testing.B)      { benchFig(b, benchCtx.Fig19) }
func BenchmarkFig20AdderStates(b *testing.B)   { benchFig(b, benchCtx.Fig20) }

// --- Parallel-vs-serial variants: the same sweep-heavy workloads pinned to
// one worker vs one worker per CPU (the -workers flag's two endpoints). On a
// single-core host the two coincide; the serial-path savings show up in the
// base BenchmarkFig07LockingRange either way. ---

var (
	benchCtxW1 = func() *figs.Context { c := figs.New(""); c.Workers = 1; return c }()
	benchCtxWN = figs.New("") // Workers 0 → one per CPU
)

func BenchmarkFig07LockingRangeWorkers1(b *testing.B) { benchFigOn(b, benchCtxW1, benchCtxW1.Fig07) }
func BenchmarkFig07LockingRangeWorkersN(b *testing.B) { benchFigOn(b, benchCtxWN, benchCtxWN.Fig07) }

// benchEnsemble runs a 16-member stochastic Monte-Carlo ensemble of the
// SHIL-locked latch per iteration.
func benchEnsemble(b *testing.B, workers int) {
	b.Helper()
	_, sol, p := benchFixture(b)
	m := gae.NewModel(p, sol.F0, gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noise.StochasticEnsemble(context.Background(), m, 0, 1e-3, 0, 0.2, 1e-4, 7, 16, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoiseEnsembleWorkers1(b *testing.B) { benchEnsemble(b, 1) }
func BenchmarkNoiseEnsembleWorkersN(b *testing.B) { benchEnsemble(b, 0) }

// BenchmarkShootAutonomousRing is the instrumentation overhead guard: the
// full shooting solve on the paper's ring with diagnostics disabled (no
// metrics in the context). `make bench-overhead` holds it within 2% of
// BENCH_baseline.json; allocs/op must not grow at all (the disabled path is
// a nil check and must not allocate).
func BenchmarkShootAutonomousRing(b *testing.B) {
	r, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	x0 := r.KickStart()
	opt := pss.Options{GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 256, SettleCycles: 10}
	op := func() error {
		_, err := pss.ShootAutonomous(r.Sys, x0, opt)
		return err
	}
	warmUp(b, op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// warmUp runs one op of a benchmark outside its timer, before any metrics
// are made, so that one-time set-up — package-level caches, a System's
// lazily built sparse pattern, plan and symbolic analysis, scratch growth —
// stays out of the per-op allocation and work counts the gates pin,
// whichever benchmarks ran before in the process. It then collects the
// warm-up's garbage, as the testing package does before every benchmark
// run, so the timed ops start from the heap the warm-up op started from.
func warmUp(b *testing.B, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
}

// --- Engine memoization: the cold build→PSS→PPV pipeline against a warm
// cache hit on the same engine. `make bench-engine` compares both against
// BENCH_baseline.json; the warm path must stay a cache lookup (shared
// pointer return), orders of magnitude under the cold solve. ---

func BenchmarkEngineRingPPVCold(b *testing.B) {
	cfg := phlogon.DefaultRingConfig()
	op := func(ctx context.Context) error {
		_, _, _, err := phlogon.NewEngine(phlogon.EngineOptions{}).RingPPV(ctx, cfg)
		return err
	}
	warmUp(b, func() error { return op(context.Background()) })
	m := diag.New()
	ctx := diag.WithMetrics(context.Background(), m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(ctx); err != nil {
			b.Fatal(err)
		}
	}
	// The cold extraction's work, per op: settle and shooting transients
	// (steps), their correctors and the bordered Newton (iterations, LU
	// factorizations), and the circuit evaluations of both stages.
	n := float64(b.N)
	b.ReportMetric(float64(m.Get(diag.TransientSteps))/n, "transient_steps/op")
	b.ReportMetric(float64(m.Get(diag.NewtonIterations))/n, "newton_iters/op")
	b.ReportMetric(float64(m.Get(diag.LUFactorizations))/n, "lu_factorizations/op")
	b.ReportMetric(float64(m.Get(diag.CircuitEvals))/n, "circuit_evals/op")
}

func BenchmarkEngineRingPPVWarm(b *testing.B) {
	cfg := phlogon.DefaultRingConfig()
	ctx := context.Background()
	eng := phlogon.NewEngine(phlogon.EngineOptions{})
	if _, _, _, err := eng.RingPPV(ctx, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.RingPPV(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Efficiency comparison (the paper's headline): identical physics
// through the SPICE-level engine and the phase-macromodel engines. ---

// benchFixture builds the shared latch PPV once.
func benchFixture(b *testing.B) (*ringosc.Ring, *pss.Solution, *ppv.PPV) {
	b.Helper()
	r, sol, p, err := benchCtx.Ring1()
	if err != nil {
		b.Fatal(err)
	}
	return r, sol, p
}

// BenchmarkEffSpiceTransientBitFlip: 140 reference cycles of the Fig. 9 D
// latch at SPICE level (trapezoidal, 512 steps/cycle).
func BenchmarkEffSpiceTransientBitFlip(b *testing.B) {
	_, sol, _ := benchFixture(b)
	f1 := sol.F0
	T1 := 1 / f1
	cfg := ringosc.DefaultLatchConfig(f1)
	cfg.SyncAmp = 120e-6
	cfg.DAmp = 150e-6
	cfg.DFlipTime = 40 * T1
	l, err := ringosc.BuildLatch(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x0 := l.KickStart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transient.Run(l.Sys, x0, 0, 140*T1, transient.Options{
			Method: transient.Trap, Step: T1 / 512,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEffPhaseMacroBitFlip: the same 140 cycles on the scalar GAE.
func BenchmarkEffPhaseMacroBitFlip(b *testing.B) {
	_, sol, p := benchFixture(b)
	f1 := sol.F0
	T1 := 1 / f1
	m := gae.NewModel(p, f1,
		gae.Injection{Name: "SYNC", Node: 0, Amp: 120e-6, Harmonic: 2},
		gae.Injection{Name: "D", Node: 0, Amp: 150e-6, Harmonic: 1, Phase: 0.1},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transient(0.497, 0, 140*T1, T1)
	}
}

// benchAdder builds the transistor/op-amp serial adder (two latch rings,
// majority gates, clocked coupling; 14 free nodes) for the 101 + 101
// operands, coupled from the shared latch's calibration, with its initial
// state and reference period T1.
func benchAdder(b *testing.B) (ac *ringosc.AdderCircuit, x0 []float64, T1 float64) {
	cfg, sol := benchAdderConfig(b)
	ac, err := ringosc.BuildSerialAdderCircuit(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ac, ac.InitialState(sol, false, false), 1 / sol.F0
}

// benchAdderConfig is the serial adder configuration behind benchAdder,
// with the PSS solution its initial state is taken from.
func benchAdderConfig(b *testing.B) (ringosc.AdderCircuitConfig, *pss.Solution) {
	b.Helper()
	_, sol, p := benchFixture(b)
	latch := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 120e-6}
	cal, err := phasemacro.Calibrate(latch, 10e3)
	if err != nil {
		b.Fatal(err)
	}
	cr, cc, inv, err := ringosc.CouplingFromCalibration(cal.Coupling, sol.F0)
	if err != nil {
		b.Fatal(err)
	}
	aBits := []bool{true, false, true}
	return ringosc.AdderCircuitConfig{
		Ring: ringosc.DefaultConfig(), F1: sol.F0,
		SyncAmp: 120e-6, SyncPhase: cal.SyncPhase,
		InputAmp: cmplx.Abs(cal.OutPhasor0), OutAngle: cmplx.Phase(cal.OutPhasor0),
		CouplingR: cr, CouplingC: cc, Invert: inv,
		ClockCycles: 120, ABits: aBits, BBits: aBits,
	}, sol
}

// BenchmarkEffSpiceTransientFSM: the full transistor/op-amp serial adder
// adding 101 + 101 over 3 clock periods — the honest SPICE-level cost of
// the FSM scenario, on the backend Auto resolves for the adder (sparse).
// It reports the Newton corrector's work per op (Newton iterations, LU
// factorizations, Jacobian evaluations), which the chord iterations of the
// Newton policy move.
func BenchmarkEffSpiceTransientFSM(b *testing.B) {
	ac, x0, T1 := benchAdder(b)
	op := func(ctx context.Context) error {
		_, err := transient.RunCtx(ctx, ac.Sys, x0, 0, 3*ac.ClockPeriod, transient.Options{
			Method: transient.Trap, Step: T1 / 256, Record: 8,
		})
		return err
	}
	warmUp(b, func() error { return op(context.Background()) })
	m := diag.New()
	ctx := diag.WithMetrics(context.Background(), m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(ctx); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(m.Get(diag.NewtonIterations))/n, "newton_iters/op")
	b.ReportMetric(float64(m.Get(diag.LUFactorizations))/n, "lu_factorizations/op")
	b.ReportMetric(float64(m.Get(diag.CircuitJacEvals))/n, "jac_evals/op")
	b.ReportMetric(float64(m.Get(diag.CircuitEvals))/n, "circuit_evals/op")
}

// adderUnitReps is the number of unit operations in one op of the adder
// unit-cost benchmarks, so that a single-op run (bench-alloc's
// -benchtime 1x) still times milliseconds, not one cold call.
const adderUnitReps = 1000

// BenchmarkAdderEvalFJ is the circuit layer's unit cost under
// BenchmarkEffSpiceTransientFSM: adderUnitReps Workspace.EvalFJ calls on
// the adder. Every call evaluates at a fresh time point, so the rail memo
// misses and every rail waveform runs — the first evaluation of a θ step;
// the step's further Newton iterations at that time reuse the rails.
func BenchmarkAdderEvalFJ(b *testing.B) {
	ac, x0, T1 := benchAdder(b)
	sys := ac.Sys
	ws := sys.NewWorkspace()
	f, j := linalg.NewVec(sys.N), linalg.NewMat(sys.N, sys.N)
	x := linalg.Vec(x0)
	h := T1 / 256
	op := func(i int) {
		for r := 1; r <= adderUnitReps; r++ {
			ws.EvalFJ(x, float64(i*adderUnitReps+r)*h, f, j)
		}
	}
	op(b.N) // warm-up, at time points past the timed ops'
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkAdderEvalF is the unit cost of a chord iteration under the same
// run: adderUnitReps Workspace.EvalF calls on the adder at one time point,
// so every call after an op's first reads rails, sources and the clocked
// transmission gates' conductances from the time memo and skips the
// Jacobian-only arithmetic — a corrector's f-only iterations at its step's
// own time.
func BenchmarkAdderEvalF(b *testing.B) {
	ac, x0, T1 := benchAdder(b)
	sys := ac.Sys
	ws := sys.NewWorkspace()
	f := linalg.NewVec(sys.N)
	x := linalg.Vec(x0)
	h := T1 / 256
	op := func(i int) {
		t := float64(i+1) * h
		for r := 0; r < adderUnitReps; r++ {
			ws.EvalF(x, t, f)
		}
	}
	op(b.N) // warm-up, at a time point past the timed ops'
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// adderBatchLanes is the corner count of BenchmarkAdderEvalFJBatch.
const adderBatchLanes = 8

// BenchmarkAdderEvalFJBatch is BenchmarkAdderEvalFJ through one Batch of
// adderBatchLanes adder corners (coupling and device parameters spread per
// lane): adderUnitReps EvalFJBatch calls at fresh time points per op. It
// reports the cost per lane evaluation, comparable with AdderEvalFJ's
// ns/op divided by adderUnitReps.
func BenchmarkAdderEvalFJBatch(b *testing.B) {
	cfg, sol := benchAdderConfig(b)
	systems := make([]*circuit.System, adderBatchLanes)
	var x []float64
	for k := range systems {
		c := cfg
		d := float64(k) - adderBatchLanes/2
		c.CouplingR *= 1 + 0.02*d
		c.Ring.NMOS.Beta *= 1 + 0.01*d
		c.Ring.PMOS.VT0 *= 1 - 0.01*d
		ac, err := ringosc.BuildSerialAdderCircuit(c)
		if err != nil {
			b.Fatal(err)
		}
		systems[k] = ac.Sys
		x = append(x, ac.InitialState(sol, false, false)...)
	}
	bt, err := circuit.NewBatch(systems)
	if err != nil {
		b.Fatal(err)
	}
	bw := bt.NewWorkspace()
	h := 1 / sol.F0 / 256
	op := func(i int) {
		for r := 1; r <= adderUnitReps; r++ {
			bw.EvalFJBatch(x, float64(i*adderUnitReps+r)*h)
		}
	}
	op(b.N) // warm-up, at time points past the timed ops'
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*adderUnitReps*adderBatchLanes), "ns/lane")
}

// BenchmarkAdderIterationLU is the linear-algebra unit cost under the same
// run: adderUnitReps factor + solve pairs of the adder's trapezoidal
// iteration matrix C/h + J/2 (N = 14) on warm buffers, on the backend Auto
// resolves for the adder — sparse, as in BenchmarkEffSpiceTransientFSM.
func BenchmarkAdderIterationLU(b *testing.B) {
	ac, x0, T1 := benchAdder(b)
	benchIterationLU(b, ac.Sys, x0, T1/256, linalg.BackendAuto)
}

// BenchmarkIterationLU is the dense-against-sparse crossover behind
// BackendAuto's density rule: the iteration-matrix unit of
// BenchmarkAdderIterationLU on each backend, over rings of 3, 5 and 9
// stages, the D latch, coupled arrays of 2 to 16 rings and the adder.
// ns/call is the time of one factor + solve.
func BenchmarkIterationLU(b *testing.B) {
	type circ struct {
		name  string
		build func(b *testing.B) (*circuit.System, linalg.Vec, float64)
	}
	ring := func(stages int) circ {
		return circ{fmt.Sprintf("ring%d", stages), func(b *testing.B) (*circuit.System, linalg.Vec, float64) {
			cfg := ringosc.DefaultConfig()
			cfg.Stages = stages
			r, err := ringosc.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r.Sys, r.KickStart(), 1 / r.EstimatedF0() / 256
		}}
	}
	array := func(rings int) circ {
		return circ{fmt.Sprintf("array%d", rings), func(b *testing.B) (*circuit.System, linalg.Vec, float64) {
			arr, x0, T := benchArray(b, rings)
			return arr.Sys, x0, T / 256
		}}
	}
	latch := circ{"latch", func(b *testing.B) (*circuit.System, linalg.Vec, float64) {
		_, sol, _ := benchFixture(b)
		l, err := ringosc.BuildLatch(ringosc.DefaultLatchConfig(sol.F0))
		if err != nil {
			b.Fatal(err)
		}
		return l.Sys, l.KickStart(), 1 / sol.F0 / 256
	}}
	adder := circ{"adder", func(b *testing.B) (*circuit.System, linalg.Vec, float64) {
		ac, x0, T1 := benchAdder(b)
		return ac.Sys, x0, T1 / 256
	}}
	for _, c := range []circ{ring(3), latch, ring(5), array(2), ring(9), array(4), adder, array(8), array(16)} {
		for _, be := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
			b.Run(c.name+"/"+be.String(), func(b *testing.B) {
				sys, x0, h := c.build(b)
				benchIterationLU(b, sys, x0, h, be)
			})
		}
	}
}

// benchIterationLU times adderUnitReps factor + solve pairs per op of
// sys's trapezoidal iteration matrix C/h + J/2 at (x, 0) on backend be,
// into warm buffers, and reports the time of one pair as ns/call.
func benchIterationLU(b *testing.B, sys *circuit.System, x linalg.Vec, h float64, be linalg.Backend) {
	n := sys.N
	f, dx := linalg.NewVec(n), linalg.NewVec(n)
	ws := sys.NewWorkspace()
	var factorSolve func() error
	if sys.ResolveBackend(be) == linalg.BackendSparse {
		a := sparse.NewCSC(sys.SparsePattern())
		ws.EvalFJSparse(x, 0, f, a)
		for k, c := range sys.SparseC().Val {
			a.Val[k] = c/h + 0.5*a.Val[k]
		}
		var lu sparse.LU
		factorSolve = func() error {
			if err := lu.FactorizeInto(a); err != nil {
				return err
			}
			lu.SolveInto(dx, f)
			return nil
		}
	} else {
		a := linalg.NewMat(n, n)
		ws.EvalFJ(x, 0, f, a)
		for k, c := range sys.C.Data {
			a.Data[k] = c/h + 0.5*a.Data[k]
		}
		var lu linalg.LU
		factorSolve = func() error {
			if err := lu.FactorizeInto(a); err != nil {
				return err
			}
			lu.SolveInto(dx, f)
			return nil
		}
	}
	op := func() error {
		for r := 0; r < adderUnitReps; r++ {
			if err := factorSolve(); err != nil {
				return err
			}
		}
		return nil
	}
	warmUp(b, op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*adderUnitReps), "ns/call")
}

// BenchmarkEffPhaseMacroFSM: the full serial adder (3 clock periods = 300
// cycles) on phase macromodels.
func BenchmarkEffPhaseMacroFSM(b *testing.B) {
	_, _, p := benchFixture(b)
	aBits := []bool{true, false, true}
	sa, err := phlogic.NewSerialAdder(p, p.F0, aBits, aBits, phlogic.SerialAdderConfig{
		SyncAmp: 100e-6, ClockCycles: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	op := func() error {
		_, err := sa.Run(3, 0.25)
		return err
	}
	warmUp(b, op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches for DESIGN.md's called-out choices. ---

// BenchmarkAblationTransientFixed vs ...Adaptive: LTE-adaptive stepping on
// the D-latch settle transient.
func BenchmarkAblationTransientFixed(b *testing.B) {
	_, sol, _ := benchFixture(b)
	T1 := 1 / sol.F0
	l, err := ringosc.BuildLatch(ringosc.DefaultLatchConfig(sol.F0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transient.Run(l.Sys, l.KickStart(), 0, 20*T1, transient.Options{
			Method: transient.Trap, Step: T1 / 512,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransientAdaptive(b *testing.B) {
	_, sol, _ := benchFixture(b)
	T1 := 1 / sol.F0
	l, err := ringosc.BuildLatch(ringosc.DefaultLatchConfig(sol.F0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transient.Run(l.Sys, l.KickStart(), 0, 20*T1, transient.Options{
			Method: transient.Trap, Step: T1 / 512, Adaptive: true, LTETol: 1e-3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGAEAveraged vs ...NonAveraged: the averaged GAE against
// the unaveraged eq.-(13) phase model on the same flip.
func BenchmarkAblationGAEAveraged(b *testing.B) {
	_, sol, p := benchFixture(b)
	T1 := 1 / sol.F0
	m := gae.NewModel(p, sol.F0,
		gae.Injection{Node: 0, Amp: 120e-6, Harmonic: 2},
		gae.Injection{Node: 0, Amp: 150e-6, Harmonic: 1, Phase: 0.1},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transient(0.3, 0, 200*T1, T1)
	}
}

func BenchmarkAblationGAENonAveraged(b *testing.B) {
	_, sol, p := benchFixture(b)
	T1 := 1 / sol.F0
	m := gae.NewModel(p, sol.F0,
		gae.Injection{Node: 0, Amp: 120e-6, Harmonic: 2},
		gae.Injection{Node: 0, Amp: 150e-6, Harmonic: 1, Phase: 0.1},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TransientNonAveraged(0.3, 0, 200*T1, 64, nil)
	}
}

// BenchmarkAblationPPVTimeDomain vs ...PPVHB: the two extraction paths.
func BenchmarkAblationPPVTimeDomain(b *testing.B) {
	r, sol, _ := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppv.FromSolution(r.Sys, sol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPPVHB(b *testing.B) {
	r, sol, _ := benchFixture(b)
	hb := pss.HBFromSolution(r.Sys, sol, 16)
	if err := pss.RefineHB(r.Sys, hb, 12, 1e-10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hb.PPVHB(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sparse-vs-dense backend scaling: coupled ring-oscillator arrays of
// 16/64/256 rings (48/192/768 free nodes) through the transient corrector
// and the shooting inner loop. Both backends integrate the identical step
// sequence (same method, same fixed step count), so time-per-op is a pure
// linear-algebra comparison at matched accuracy. `make bench-sparse` pins
// these into BENCH_baseline.json. ---

func benchArray(b *testing.B, nRings int) (*ringosc.Array, linalg.Vec, float64) {
	b.Helper()
	arr, err := ringosc.BuildArray(nRings)
	if err != nil {
		b.Fatal(err)
	}
	return arr, arr.KickStart(), 1 / arr.EstimatedF0()
}

func BenchmarkSparseVsDenseTransient(b *testing.B) {
	for _, nRings := range []int{16, 64, 256} {
		for _, bk := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
			b.Run(fmt.Sprintf("N=%d/%s", nRings, bk), func(b *testing.B) {
				arr, x0, T := benchArray(b, nRings)
				sc := transient.NewScratch(arr.Sys)
				opt := transient.Options{
					Method: transient.Trap, Step: T / 64, Backend: bk,
				}
				// Eight fixed Trap steps per op.
				op := func() error {
					_, err := sc.Run(context.Background(), x0, 0, T/8, opt)
					return err
				}
				warmUp(b, op)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSparseVsDenseShoot(b *testing.B) {
	for _, nRings := range []int{16, 64, 256} {
		for _, bk := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
			b.Run(fmt.Sprintf("N=%d/%s", nRings, bk), func(b *testing.B) {
				arr, x0, T := benchArray(b, nRings)
				// One bordered-Newton outer iteration per op: coupled
				// identical rings carry near-unit Floquet multipliers, so
				// convergence is not the point here — the cost of one outer
				// iteration (monodromy propagation + bordered solve) is,
				// with its work counts, which bench-sparse gates exactly.
				opt := pss.Options{
					GuessT: T, StepsPerPeriod: 8, MaxIter: 1,
					SettleCycles: -1, Backend: bk,
				}
				op := func(ctx context.Context) error {
					_, err := pss.ShootAutonomousCtx(ctx, arr.Sys, x0, opt)
					if errors.Is(err, solver.ErrNoConvergence) {
						return nil
					}
					return err
				}
				warmUp(b, func() error { return op(context.Background()) })
				m := diag.New()
				ctx := diag.WithMetrics(context.Background(), m)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op(ctx); err != nil {
						b.Fatal(err)
					}
				}
				reportWork(b, m)
			})
		}
	}
}

// --- Batched-ensemble Monte Carlo: the same 16 seeded process corners
// through the scalar per-corner pipeline (one cold PSS→PPV→GAE chain per
// corner) and through the SoA batched pipeline (one nominal solve, then all
// corners warm-started in lockstep through circuit.Batch). Both run one
// worker so the comparison is pure per-corner cost, not parallelism. `make
// bench-batch` pins both into BENCH_baseline.json and holds the batched
// path's ≥5x advantage via `phlogon-benchdiff ratio`. ---

const benchMCSamples = 16

func BenchmarkVariationMCScalar(b *testing.B) {
	cfg := ringosc.DefaultConfig()
	params := variation.StandardParams()
	m := diag.New()
	ctx := diag.WithMetrics(context.Background(), m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := variation.MonteCarloSampledEng(ctx, nil, cfg, params, benchMCSamples, variation.PseudoSampler{Seed: 1}, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportWork(b, m)
}

func BenchmarkVariationMCBatched(b *testing.B) {
	cfg := ringosc.DefaultConfig()
	params := variation.StandardParams()
	m := diag.New()
	ctx := diag.WithMetrics(context.Background(), m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := variation.MonteCarloBatchEng(ctx, nil, cfg, params, benchMCSamples,
			variation.PseudoSampler{Seed: 1}, benchMCSamples, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportWork(b, m)
}

// reportWork reports a shooting or Monte-Carlo benchmark's work per op —
// Newton iterations, LU factorizations (on either backend), circuit
// evaluations and transient steps — which `make bench-batch` and `make
// bench-sparse` gate exactly, so a change to a benchmark's work shows as a
// count, not only as a time.
func reportWork(b *testing.B, m *diag.Metrics) {
	n := float64(b.N)
	b.ReportMetric(float64(m.Get(diag.NewtonIterations))/n, "newton_iters/op")
	b.ReportMetric(float64(m.Get(diag.LUFactorizations))/n, "lu_factorizations/op")
	b.ReportMetric(float64(m.Get(diag.CircuitEvals))/n, "circuit_evals/op")
	b.ReportMetric(float64(m.Get(diag.TransientSteps))/n, "transient_steps/op")
}

// --- Batched stochastic ensembles: a 64-member BER study of a six-injection
// SHIL latch (SYNC plus logic/clock/neighbor couplings — the folded CompiledG
// carries two harmonic stacks), 10,000 Euler–Maruyama steps per member. The
// scalar leg runs the pre-batching interpreted pipeline (per-step Harmonic
// pick-off, trajectory retention); the batched leg runs the compiled SoA
// lanes with in-loop hop counting. Both run one worker so the ratio is pure
// per-member cost; `make bench-noise` holds the batched path's ≥4x advantage
// via `phlogon-benchdiff ratio`. ---

func benchBERModel(b *testing.B) *gae.Model {
	_, sol, p := benchFixture(b)
	cal, err := phasemacro.Calibrate(&phasemacro.Latch{P: p, Node: 0, Out: 0}, 10e3)
	if err != nil {
		b.Fatal(err)
	}
	return gae.NewModel(p, sol.F0,
		gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2, Phase: cal.SyncPhase},
		gae.Injection{Name: "D", Node: 0, Amp: 20e-6, Harmonic: 1, Phase: 0.10},
		gae.Injection{Name: "CLK", Node: 0, Amp: 15e-6, Harmonic: 1, Phase: 0.35},
		gae.Injection{Name: "NB1", Node: 0, Amp: 10e-6, Harmonic: 1, Phase: 0.62},
		gae.Injection{Name: "NB2", Node: 0, Amp: 8e-6, Harmonic: 2, Phase: 0.21},
		gae.Injection{Name: "NB3", Node: 0, Amp: 6e-6, Harmonic: 1, Phase: 0.80},
	)
}

func benchBER(b *testing.B, scalar bool) {
	m := benchBERModel(b)
	opt := noise.BEROptions{
		TBit: 0.05, Bits: 20, Members: 64, Dt: 1e-4, Seed: 1, Workers: 1, Scalar: scalar,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noise.EstimateBER(context.Background(), m, 4e-3, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStochasticEnsembleScalar(b *testing.B)  { benchBER(b, true) }
func BenchmarkStochasticEnsembleBatched(b *testing.B) { benchBER(b, false) }

// BenchmarkFacadePipeline measures the whole designer flow through the
// public API (build → PSS → PPV).
func BenchmarkFacadePipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := phlogon.RingPPVCtx(context.Background(), phlogon.DefaultRingConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
