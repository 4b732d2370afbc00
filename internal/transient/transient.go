// Package transient implements SPICE-level transient analysis of assembled
// circuits: implicit θ-method integration (Backward Euler and Trapezoidal)
// with a damped-Newton corrector, fixed or LTE-adaptive stepping, and
// optional propagation of the state-sensitivity (monodromy) matrix that the
// shooting-method PSS and PPV extraction build on.
//
// This is the engine the paper contrasts its phase macromodels against:
// accurate but expensive, because oscillator phase drifts force tiny time
// steps over thousands of cycles. Expensive must mean arithmetic, not
// garbage: all per-step state (Newton buffers, LU factors, sensitivity
// matrices) lives in a reusable Scratch, and recorded trajectories are
// carved from chunked arenas, so the steady-state integration loop does not
// allocate.
package transient

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
)

// Method selects the integration formula.
type Method int

const (
	// BE is Backward Euler (θ = 1): L-stable, first order, damps oscillator
	// amplitudes — used for startup steps.
	BE Method = iota
	// Trap is the trapezoidal rule (θ = 1/2): A-stable, second order, the
	// default for oscillator work.
	Trap
	// Gear2 is the two-step BDF2 formula: L-stable and second order, the
	// classic SPICE "gear" method — damps trapezoidal ringing on stiff
	// switching circuits at the cost of slight amplitude loss. Fixed-step
	// only (the first step falls back to BE).
	Gear2
)

// theta returns the implicit-weighting parameter of the one-step θ-method.
// Gear2 is a two-step formula with no θ equivalent, so asking for one is a
// programming error, not a degenerate Trap.
func (m Method) theta() float64 {
	switch m {
	case BE:
		return 1
	case Trap:
		return 0.5
	}
	panic("transient: theta() is undefined for method " + m.String())
}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case BE:
		return "BE"
	case Gear2:
		return "GEAR2"
	default:
		return "TRAP"
	}
}

// Options configures a transient run.
type Options struct {
	Method      Method
	Step        float64 // fixed step, or initial step when Adaptive
	Adaptive    bool
	MinStep     float64 // adaptive floor (default Step/1e6)
	MaxStep     float64 // adaptive ceiling (default 100·Step)
	LTETol      float64 // adaptive local-error tolerance on voltages (default 1e-4 V)
	NewtonTol   float64 // corrector update tolerance in volts, capped at 1e-6, times 1+|x|∞ (default 1e-9)
	MaxNewton   int     // corrector iteration cap (default 40)
	Sensitivity bool    // propagate dx(t)/dx(0) alongside the state
	// Record decimation: keep every Record-th accepted point (default 1).
	Record int
	// Backend selects the linear-algebra backend for the corrector and the
	// sensitivity propagation. The zero value (Auto) picks sparse for large
	// circuits and dense for small ones (see circuit.System.ResolveBackend);
	// the dense branch is bit-identical to the pre-backend engine.
	Backend linalg.Backend
}

// Result holds the recorded trajectory.
type Result struct {
	T []float64
	X []linalg.Vec
	// Sens is dx(T_end)/dx(0) when Options.Sensitivity was set.
	Sens *linalg.Mat
	// Steps is the number of accepted steps; Rejected counts LTE rejections.
	Steps, Rejected int
	// NewtonIters accumulates corrector iterations (cost metric), those of
	// failed attempts included.
	NewtonIters int
}

// Node returns the waveform of free node index k.
func (r *Result) Node(k int) []float64 {
	out := make([]float64, len(r.T))
	for i, x := range r.X {
		out[i] = x[k]
	}
	return out
}

// Final returns the last recorded state, or nil when the trajectory is empty
// (a run that failed before its first accepted step).
func (r *Result) Final() linalg.Vec {
	if r == nil || len(r.X) == 0 {
		return nil
	}
	return r.X[len(r.X)-1]
}

// ErrStepUnderflow indicates the adaptive controller hit MinStep.
var ErrStepUnderflow = errors.New("transient: step size underflow")

// ErrUnsupported is the sentinel under every "this option combination is not
// implemented" error of the transient engine, so callers can distinguish
// capability gaps (errors.Is(err, ErrUnsupported)) from numerical failures.
var ErrUnsupported = errors.New("transient: unsupported option combination")

// ErrGear2Adaptive is returned when Options request Gear2 with Adaptive
// stepping: the fixed-coefficient BDF2 implementation has no variable-step
// form, and silently running fixed-step would misrepresent the result. It
// wraps ErrUnsupported.
var ErrGear2Adaptive = fmt.Errorf("%w: Gear2 supports fixed steps only (Adaptive must be false)", ErrUnsupported)

// vecArena hands out n-vectors carved from chunked backing arrays, so
// recording a trajectory costs one allocation per arenaChunk points instead
// of one per point. An arena belongs to exactly one Result: its chunks are
// never reclaimed or reused, so the vectors stay valid for the Result's
// lifetime — but they share backing storage, so callers must never append
// to or re-slice a Result.X entry.
type vecArena struct {
	n   int
	buf []float64
}

// arenaChunk is the number of vectors allocated per arena chunk.
const arenaChunk = 128

// clone copies x into freshly carved arena storage.
func (a *vecArena) clone(x linalg.Vec) linalg.Vec {
	if len(a.buf) < a.n {
		a.buf = make([]float64, a.n*arenaChunk)
	}
	v := linalg.Vec(a.buf[:a.n:a.n])
	a.buf = a.buf[a.n:]
	copy(v, x)
	return v
}

// Scratch bundles every reusable buffer a transient integration needs — the
// per-call circuit.Workspace, the corrector's Newton/LU scratch, and the
// sensitivity-propagation matrices — so repeated runs on one System (the
// shooting method's inner loop, ensemble members, benchmark iterations)
// allocate only trajectory storage.
//
// A Scratch is NOT safe for concurrent use: like circuit.Workspace, one
// Scratch serves one goroutine. Concurrent integrations of a shared System
// each take their own Scratch (or call RunCtx, which makes a private one).
// Results never alias scratch memory — trajectories live in per-run arenas
// and sensitivity matrices are freshly allocated per run — so a Result
// outlives any reuse of the Scratch that produced it.
type Scratch struct {
	sys              *circuit.System
	st               *stepper
	g                *gearStepper       // lazy: Gear2 runs only
	sst              *sparseStepper     // lazy: sparse-backend runs only
	sg               *sparseGearStepper // lazy: sparse Gear2 runs only
	x, pred          linalg.Vec
	prev, prev2      linalg.Vec // the accepted points before x, for the predictor
	pinned, reported int64
}

// NewScratch returns a Scratch for integrating sys.
func NewScratch(sys *circuit.System) *Scratch {
	n := sys.N
	sc := &Scratch{
		sys:   sys,
		st:    newStepper(sys),
		x:     linalg.NewVec(n),
		pred:  linalg.NewVec(n),
		prev:  linalg.NewVec(n),
		prev2: linalg.NewVec(n),
	}
	sc.pinned = int64(8 * (4*n + 4*n + 3*n*n + n*n)) // run+stepper vectors; Jacobian, scaled C and workspace J; LU
	return sc
}

// countPinned reports not-yet-counted pinned bytes on m (once per scratch,
// plus deltas when lazy sensitivity/Gear2 buffers appear).
func (sc *Scratch) countPinned(m *diag.Metrics) {
	if m == nil || sc.pinned == sc.reported {
		return
	}
	m.Add(diag.ScratchBytesPinned, sc.pinned-sc.reported)
	sc.reported = sc.pinned
}

// Run integrates the circuit ODE C·ẋ = −f(x,t) from x0 over [t0, t1].
//
// Run is safe to call concurrently on one shared System: every piece of
// integration scratch lives in a per-call Scratch.
func Run(sys *circuit.System, x0 linalg.Vec, t0, t1 float64, opt Options) (*Result, error) {
	return RunCtx(context.Background(), sys, x0, t0, t1, opt)
}

// RunCtx is Run with cancellation: the integration checks ctx between steps
// and returns ctx.Err() (with the partial trajectory) once canceled. It
// integrates through a private Scratch; loops that re-run transients on one
// System should hold a Scratch and call its Run method instead.
func RunCtx(ctx context.Context, sys *circuit.System, x0 linalg.Vec, t0, t1 float64, opt Options) (*Result, error) {
	return NewScratch(sys).Run(ctx, x0, t0, t1, opt)
}

// Run is RunCtx executing inside sc's reusable buffers.
func (sc *Scratch) Run(ctx context.Context, x0 linalg.Vec, t0, t1 float64, opt Options) (*Result, error) {
	if opt.Step <= 0 {
		return nil, errors.New("transient: Options.Step must be positive")
	}
	if opt.Method == Gear2 {
		if opt.Adaptive {
			return nil, ErrGear2Adaptive
		}
		return sc.runGear2(ctx, x0, t0, t1, opt)
	}
	defer diag.SpanFrom(ctx, "transient").End()
	if opt.Record <= 0 {
		opt.Record = 1
	}
	if opt.NewtonTol == 0 {
		opt.NewtonTol = 1e-9
	}
	if opt.MaxNewton == 0 {
		opt.MaxNewton = 40
	}
	if opt.LTETol == 0 {
		opt.LTETol = 1e-4
	}
	if opt.MinStep == 0 {
		opt.MinStep = opt.Step / 1e6
	}
	if opt.MaxStep == 0 {
		opt.MaxStep = opt.Step * 100
	}

	sys := sc.sys
	n := sys.N
	dm := diag.FromContext(ctx)
	st := sc.thetaStepper(opt, dm)
	sc.countPinned(dm)
	res := &Result{}
	arena := &vecArena{n: n} // owned by res; never reused across runs
	x := sc.x
	x.CopyFrom(x0)
	t := t0
	res.T = append(res.T, t)
	res.X = append(res.X, arena.clone(x))

	var sens *linalg.Mat
	if opt.Sensitivity {
		sens = linalg.Eye(n) // caller-owned via res.Sens; propagated in place
	}

	// Fixed-step runs walk the grid g; adaptive runs step h from t.
	h := opt.Step
	g := newStepGrid(t0, t1, h)
	k := 0
	sinceRecord := 0
	// The accepted points before x and the steps between them (0 until the
	// run has them), for the predictor.
	prev, prev2 := sc.prev, sc.prev2
	h1, h2 := 0.0, 0.0
	pred := sc.pred

	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		var hTaken, tNext float64
		if opt.Adaptive {
			if t >= t1-1e-15*math.Max(1, math.Abs(t1)) {
				break
			}
			if t+h > t1 {
				h = t1 - t
			}
			hTaken, tNext = h, t+h
		} else {
			if k >= g.n {
				break
			}
			hTaken, tNext = g.size(k), g.at(k+1)
		}
		predict(pred, x, prev, prev2, hTaken, h1, h2)
		xNew, iters, err := st.step(x, pred, t, tNext, hTaken)
		res.NewtonIters += iters
		if err != nil {
			// Newton failure: retry with a smaller step; a fixed-step run
			// restarts its grid at the accepted point.
			if hTaken/2 < opt.MinStep {
				return res, fmt.Errorf("transient: corrector failed at t=%.6g: %w: %w", t, err, ErrStepUnderflow)
			}
			h = hTaken / 2
			if !opt.Adaptive {
				g, k = newStepGrid(t, t1, h), 0
			}
			res.Rejected++
			dm.Inc(diag.TransientRejections)
			continue
		}

		if opt.Adaptive {
			// LTE estimate: difference between the corrector and the linear
			// extrapolant (not the predictor Newton started from), scaled
			// for the trapezoidal rule's error constant.
			lte := 0.0
			r := 0.0
			if h1 > 0 {
				r = hTaken / h1
			}
			for i := 0; i < n; i++ {
				lin := x[i]
				if h1 > 0 {
					lin = x[i] + r*(x[i]-prev[i])
				}
				if d := math.Abs(xNew[i] - lin); d > lte {
					lte = d
				}
			}
			if h1 > 0 {
				lte /= 3 // C_trap/(C_AB2−C_trap)-style scaling
			}
			if lte > opt.LTETol && h > opt.MinStep {
				h = math.Max(h/2, opt.MinStep)
				res.Rejected++
				dm.Inc(diag.TransientRejections)
				continue
			}
			// Grow cautiously when comfortably below tolerance. h only
			// affects the *next* step; this one advanced by hTaken.
			if lte < opt.LTETol/8 {
				h = math.Min(h*1.5, opt.MaxStep)
			}
		}

		if opt.Sensitivity {
			if err := st.stepSensitivity(x, xNew, t, tNext, hTaken, sens); err != nil {
				return res, err
			}
			if b := st.sensBytesOnce(); b > 0 {
				sc.pinned += b
				sc.countPinned(dm)
			}
		}

		prev2.CopyFrom(prev)
		prev.CopyFrom(x)
		h2, h1 = h1, hTaken
		x.CopyFrom(xNew)
		t = tNext
		k++
		res.Steps++
		dm.Inc(diag.TransientSteps)
		sinceRecord++
		if sinceRecord >= opt.Record || t >= t1 {
			res.T = append(res.T, t)
			res.X = append(res.X, arena.clone(x))
			sinceRecord = 0
		}
	}
	// Flush the decimation tail: with Record > 1 an adaptive run can exit (t
	// within the 1e-15 guard band of t1, so `t >= t1` never fired) with the
	// final accepted state unrecorded. The trajectory must always end at the last
	// accepted point — Final() and every PSS/xval consumer depend on it.
	if sinceRecord > 0 {
		res.T = append(res.T, t)
		res.X = append(res.X, arena.clone(x))
	}
	res.Sens = sens
	return res, nil
}

// oneStepper is the θ-method corrector contract Scratch.Run integrates
// through — implemented by the dense stepper and by sparseStepper. A step
// runs from (x0, t0) to the time t1 with the formula's step size h; on a
// fixed-step grid t1 − t0 and h differ by rounding, and the circuit is
// evaluated at the grid's own times, so a time point's rail values are
// computed once. sensBytesOnce reports lazily-pinned sensitivity scratch
// exactly once for the pinned-bytes accounting.
type oneStepper interface {
	step(x0, pred linalg.Vec, t0, t1, h float64) (linalg.Vec, int, error)
	stepSensitivity(x0, x1 linalg.Vec, t0, t1, h float64, sens *linalg.Mat) error
	sensBytesOnce() int64
}

// stepGrid is a fixed-step run's time grid: the points base + k·h for
// k = 0 … n−1 and t1 as point n. When the interval holds a whole number of
// steps to within 1e-9 of a step, every step is h long and the last lands
// on t1; otherwise the last step is the shorter remainder. Stepping by
// index instead of accumulating t += h keeps rounding from adding a sliver
// step at the end.
type stepGrid struct {
	base, h, t1 float64
	n           int
	whole       bool
}

func newStepGrid(base, t1, h float64) stepGrid {
	g := stepGrid{base: base, h: h, t1: t1}
	if q := (t1 - base) / h; q > 0 {
		if r := math.Round(q); math.Abs(q-r) <= 1e-9 {
			g.n, g.whole = int(r), true
		} else {
			g.n = int(math.Ceil(q))
		}
	}
	return g
}

// at returns grid point k's time.
func (g stepGrid) at(k int) float64 {
	if k == g.n {
		return g.t1
	}
	return g.base + float64(k)*g.h
}

// size returns the formula step size from point k to point k+1.
func (g stepGrid) size(k int) float64 {
	if k+1 == g.n && !g.whole {
		return g.t1 - g.at(k)
	}
	return g.h
}

// thetaStepper resolves the run's backend and returns the bound θ-stepper,
// lazily creating the sparse one (the dense stepper is always provisioned by
// NewScratch).
func (sc *Scratch) thetaStepper(opt Options, dm *diag.Metrics) oneStepper {
	if sc.sys.ResolveBackend(opt.Backend) == linalg.BackendSparse {
		if sc.sst == nil {
			sc.sst = newSparseStepper(sc.sys)
			n, nnz := sc.sys.N, sc.sys.SparsePattern().NNZ()
			sc.pinned += int64(8 * (5*n + 2*nnz))
		}
		sc.sst.bind(opt, dm)
		return sc.sst
	}
	sc.st.bind(opt, dm)
	return sc.st
}

// stepper solves one implicit θ-step with Newton. All circuit evaluations go
// through a per-stepper circuit.Workspace, and the Newton/LU/sensitivity
// buffers are pinned here, so steppers on one shared System never contend
// and the steady-state step is allocation-free.
type stepper struct {
	sys   *circuit.System
	ws    *circuit.Workspace
	opt   Options
	m     *diag.Metrics // nil when diagnostics are off
	cor   corrector     // C/h cache and sparse-C residual
	f0    linalg.Vec
	f1    linalg.Vec
	jac   *linalg.Mat // df/dx, then the iteration matrix assembled in place
	resid linalg.Vec
	dx    linalg.Vec
	x1    linalg.Vec // the corrector iterate; step's return value aliases it
	lu    linalg.LU
	// Sensitivity propagation scratch (lazy: sensitivity runs only). sj0/sj1
	// double as the propagator and product buffers once lhs/rhs are built.
	sj0, sj1, slhs, srhs *linalg.Mat
	slu                  linalg.LU
	sensCounted          bool // sens buffers folded into pinned-bytes accounting
}

// pairedMat returns an n×n matrix whose storage is the front half of a
// 2n² allocation, and the back half as a pinned n² slice (a corrector's
// scaled C rides along with the Jacobian it is added to).
func pairedMat(n int) (*linalg.Mat, []float64) {
	buf := make([]float64, 2*n*n)
	return &linalg.Mat{Rows: n, Cols: n, Data: buf[: n*n : n*n]}, buf[n*n:]
}

func newStepper(sys *circuit.System) *stepper {
	n := sys.N
	jac, scaled := pairedMat(n)
	dx := linalg.NewVec(n)
	return &stepper{
		sys:   sys,
		ws:    sys.NewWorkspace(),
		cor:   newCorrector(sys, sys.C.Data, scaled, dx, false),
		f0:    linalg.NewVec(n),
		f1:    linalg.NewVec(n),
		jac:   jac,
		resid: linalg.NewVec(n),
		dx:    dx,
		x1:    linalg.NewVec(n),
	}
}

// bind points the stepper at this run's options and metrics.
func (s *stepper) bind(opt Options, m *diag.Metrics) {
	s.opt = opt
	s.m = m
	s.ws.SetMetrics(m)
}

// sensBytesOnce reports the lazily-allocated sensitivity bytes the first
// time it is called after ensureSens ran (4 mats + sens LU factors).
func (s *stepper) sensBytesOnce() int64 {
	if s.sensCounted || s.sj0 == nil {
		return 0
	}
	s.sensCounted = true
	n := s.sys.N
	return int64(8 * 5 * n * n)
}

// ensureSens lazily allocates the four pinned sensitivity matrices.
func (s *stepper) ensureSens() {
	if s.sj0 != nil {
		return
	}
	n := s.sys.N
	s.sj0 = linalg.NewMat(n, n)
	s.sj1 = linalg.NewMat(n, n)
	s.slhs = linalg.NewMat(n, n)
	s.srhs = linalg.NewMat(n, n)
}

// step solves C(x1−x0)/h + θ f(x1,t1) + (1−θ) f(x0,t0) = 0 for x1,
// starting from the predictor. The returned vector aliases the stepper's
// iterate buffer; callers copy it before the next step.
func (s *stepper) step(x0, pred linalg.Vec, t0, t1, h float64) (linalg.Vec, int, error) {
	th := s.opt.Method.theta()
	s.ws.EvalF(x0, t0, s.f0)
	x1 := s.x1
	x1.CopyFrom(pred)
	return newtonLoop(s.m, x1, s.opt.MaxNewton, updateTol(s.opt.NewtonTol), func(refactor bool) (linalg.Vec, error) {
		if refactor {
			s.ws.EvalFJ(x1, t1, s.f1, s.jac)
		} else {
			s.ws.EvalF(x1, t1, s.f1)
		}
		s.cor.thetaResidual(s.resid, x1, x0, s.f1, s.f0, th, h)
		if refactor {
			addScaled(s.jac.Data, s.cor.scaledC(h), th) // C/h + θ J1
			if err := denseFactor(s.m, &s.lu, s.jac); err != nil {
				return nil, fmt.Errorf("transient: singular iteration matrix: %w", err)
			}
		}
		return s.lu.SolveInto(s.dx, s.resid), nil
	})
}

// stepSensitivity propagates the monodromy factor for the accepted step,
// updating sens in place:
//
//	S ← (C/h + θ·J1)⁻¹ · (C/h − (1−θ)·J0) · S
//
// All intermediates live in four pinned n×n matrices and one pinned LU; the
// arithmetic matches the historical allocate-per-step version bit for bit.
func (s *stepper) stepSensitivity(x0, x1 linalg.Vec, t0, t1, h float64, sens *linalg.Mat) error {
	n := s.sys.N
	th := s.opt.Method.theta()
	s.ensureSens()
	j0, j1 := s.sj0, s.sj1
	s.ws.EvalFJ(x0, t0, s.f0, j0)
	s.ws.EvalFJ(x1, t1, s.f1, j1)
	ch := s.cor.scaledC(h)
	lhs, rhs := s.slhs, s.srhs
	for i := range ch {
		lhs.Data[i] = ch[i] + th*j1.Data[i]
		rhs.Data[i] = ch[i] - (1-th)*j0.Data[i]
	}
	if err := denseFactor(s.m, &s.slu, lhs); err != nil {
		return fmt.Errorf("transient: singular sensitivity matrix: %w", err)
	}
	s.m.Add(diag.LUSolves, int64(n))
	// j0 and j1 are consumed; reuse them as the propagator and the product.
	prop := s.slu.SolveMatInto(j0, rhs)
	next := prop.MulInto(j1, sens)
	sens.CopyFrom(next)
	return nil
}
