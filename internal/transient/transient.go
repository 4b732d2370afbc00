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
	// sensitivity propagation. The zero value (Auto) picks by the density of
	// the circuit's Jacobian pattern (see circuit.System.ResolveBackend):
	// sparse for the SPICE-level adder and the oscillator arrays, dense for
	// a lone ring or the D latch.
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
	sys *circuit.System
	// steppers holds the θ and BDF2 correctors by backend — [dense, sparse]
	// × [θ, BDF2] — each made on first use.
	steppers             [2][2]*stepper
	x, pred, prev, prev2 linalg.Vec // prev, prev2: the accepted points before x, for the predictor
	pin                  pins
}

// NewScratch returns a Scratch for integrating sys.
func NewScratch(sys *circuit.System) *Scratch {
	n := sys.N
	v := make([]float64, 4*n)
	sc := &Scratch{sys: sys, x: v[:n:n], pred: v[n : 2*n : 2*n], prev: v[2*n : 3*n : 3*n], prev2: v[3*n:]}
	sc.pin.add(len(v))
	return sc
}

// stepper returns the θ corrector, or the BDF2 one when gear is set, on
// opt's backend, bound to opt and m.
func (sc *Scratch) stepper(opt Options, gear bool, m *diag.Metrics) *stepper {
	be := sc.sys.ResolveBackend(opt.Backend)
	i := 0
	if gear {
		i = 1
	}
	st := &sc.steppers[be-linalg.BackendDense][i]
	if *st == nil {
		*st = newStepper(sc.sys, be, gear, &sc.pin)
	}
	(*st).bind(opt, m)
	return *st
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
	if !(opt.Step > 0) || math.IsInf(opt.Step, 1) {
		return nil, fmt.Errorf("transient: Options.Step = %g must be positive and finite", opt.Step)
	}
	if len(x0) != sc.sys.N {
		return nil, fmt.Errorf("transient: x0 has length %d, want %d", len(x0), sc.sys.N)
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

	n := sc.sys.N
	dm := diag.FromContext(ctx)
	defer sc.pin.report(dm)
	st := sc.stepper(opt, false, dm)
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
		xNew, iters, err := st.theta(x, pred, t, tNext, hTaken)
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
			if err := st.thetaSens(x, xNew, t, tNext, hTaken, sens); err != nil {
				return res, err
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
