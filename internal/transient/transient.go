// Package transient implements SPICE-level transient analysis of assembled
// circuits: implicit θ-method (Backward Euler and Trapezoidal) and BDF2
// integration with a damped-Newton corrector, fixed or LTE-adaptive
// stepping, and optional propagation of the state-sensitivity (monodromy)
// matrix that the shooting-method PSS and PPV extraction build on. There
// is one integrator: the K parameter corners of a batch integrate as
// lanes, each under its own step control (batch.go), and a single
// circuit's run is the one-lane case (Scratch.Run).
//
// This is the engine the paper contrasts its phase macromodels against:
// accurate but expensive, because oscillator phase drifts force tiny time
// steps over thousands of cycles. Expensive must mean arithmetic, not
// garbage: all per-step state (Newton buffers, LU factors, sensitivity
// matrices) lives in a reusable scratch, and recorded trajectories are
// carved from per-run blocks, so the steady-state integration loop does not
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
	// only: BE takes the first step, and a last step shorter than Step.
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
	MinStep     float64 // floor of adaptive and halved steps (default Step/1e6)
	MaxStep     float64 // adaptive ceiling (default 100·Step)
	LTETol      float64 // adaptive local-error tolerance on voltages (default 1e-4 V)
	NewtonTol   float64 // corrector update tolerance in volts, capped at 1e-6, times 1+|x|∞ (default 1e-9)
	MaxNewton   int     // corrector iteration cap (default 40)
	Sensitivity bool    // propagate dx(t)/dx(0) alongside the state
	// Record decimation: keep every Record-th point of the grid (accepted
	// point, when Adaptive), and the last (default 1).
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
	// Steps is the number of accepted steps; Rejected counts the steps
	// halved after a corrector failure or rejected by the LTE controller.
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

// ErrStepUnderflow indicates that a step whose corrector failed could not
// be halved above MinStep.
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
// recording a trajectory costs one allocation per chunk instead of one per
// point. An arena belongs to exactly one lane of one result: its chunks are
// never reclaimed or reused, so the vectors stay valid for the result's
// lifetime — but they share backing storage, so callers must never append
// to or re-slice a Result.X entry.
type vecArena struct {
	n   int
	buf []float64
}

// arenaChunk is the number of vectors an arena allocates per chunk once the
// storage it started with is used up.
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

// Scratch is the reusable buffers of a transient integration of one
// System: a one-lane BatchScratch, so repeated runs on one System (the
// shooting method's inner loop, ensemble members, benchmark iterations)
// allocate only trajectory storage.
//
// A Scratch is NOT safe for concurrent use: like circuit.Workspace, one
// Scratch serves one goroutine. Concurrent integrations of a shared System
// each take their own Scratch (or call RunCtx, which makes a private one).
// Results never alias scratch memory — trajectories and sensitivity
// matrices are allocated per run — so a Result outlives any reuse of the
// Scratch that produced it.
type Scratch struct {
	b      *BatchScratch
	t0, t1 [1]float64
}

// NewScratch returns a Scratch for integrating sys.
func NewScratch(sys *circuit.System) *Scratch {
	b, err := circuit.NewBatch([]*circuit.System{sys})
	if err != nil {
		panic(err) // a lone system is congruent with itself
	}
	return &Scratch{b: NewBatchScratch(b)}
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

// Run is RunCtx executing inside sc's reusable buffers: a one-lane batched
// run that records every Record-th state. A run that fails returns the
// trajectory it accepted with the failure.
func (sc *Scratch) Run(ctx context.Context, x0 linalg.Vec, t0, t1 float64, opt Options) (*Result, error) {
	defer diag.SpanFrom(ctx, "transient").End()
	sc.t0[0], sc.t1[0] = t0, t1
	br, err := sc.b.run(ctx, x0, BatchOptions{Options: opt, T0: sc.t0[:], T1: sc.t1[:], RecordStates: true})
	if br == nil {
		return nil, err
	}
	res := &Result{T: br.T[0], X: br.States[0], Steps: br.Steps, Rejected: br.Rejected, NewtonIters: br.NewtonIters}
	if err == nil {
		err = br.Err[0]
	}
	if err == nil && br.Sens != nil {
		res.Sens = br.Sens[0]
	}
	return res, err
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
