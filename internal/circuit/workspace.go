package circuit

import (
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// Workspace holds every piece of mutable per-evaluation scratch needed to
// run analyses against a (shared, immutable) System: the one-lane context
// its plan evaluates through, with the lane's time memo (rail V and dV/dt,
// source values and rail-controlled conductances at the last evaluated time
// — see Rail for the contract), plus the Jacobian values EvalFJ scatters.
//
// A Workspace is NOT safe for concurrent use — that is its whole point: give
// each worker goroutine its own Workspace via System.NewWorkspace() and any
// number of analyses of the same circuit can run in parallel with zero
// shared mutable state. Creating a Workspace is cheap (one small buffer),
// so per-analysis creation is the normal pattern.
type Workspace struct {
	sys *System
	ctx EvalContext // the one-lane context, reused across evaluations
	key [1]uint64   // ctx.keys: the bits of the time the memo holds
	// jac holds EvalFJ's Jacobian values on the pattern (made on first use).
	jac sparse.CSC
	// m counts circuit evaluations when diagnostics are enabled (nil
	// otherwise — the nil-safe methods make the disabled path a pointer
	// test).
	m *diag.Metrics
}

// lane0 is the active-lane list of every one-lane evaluation (read-only).
var lane0 = []int{0}

// SetMetrics attaches a diagnostics collector; every subsequent evaluation
// through this workspace increments CircuitEvals (and CircuitJacEvals when
// the Jacobian is stamped). A nil m disables counting.
func (w *Workspace) SetMetrics(m *diag.Metrics) { w.m = m }

// NewWorkspace returns a fresh, independent evaluation workspace for the
// system. Each concurrent analysis should own exactly one.
func (s *System) NewWorkspace() *Workspace {
	m := s.plan.lay.memo
	w := &Workspace{sys: s}
	w.ctx = EvalContext{N: s.N, NNZ: s.pattern.NNZ(), Active: lane0, memo: nanFill(make([]float64, m)), keys: w.key[:], m: m, lanes: s.self[:]}
	return w
}

// System returns the shared immutable system the workspace evaluates.
func (w *Workspace) System() *System { return w.sys }

// EvalF computes f(x, t) into dst (allocated when nil).
func (w *Workspace) EvalF(x linalg.Vec, t float64, dst linalg.Vec) linalg.Vec {
	if dst == nil {
		dst = linalg.NewVec(w.sys.N)
	}
	w.EvalScaled(x, t, dst, nil, 1, 1)
	return dst
}

// EvalFJ computes f and its Jacobian J = df/dx at (x, t); J is n×n. The
// Jacobian is evaluated on SparsePattern and scattered into j.
func (w *Workspace) EvalFJ(x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat) {
	if w.jac.P == nil {
		w.jac = sparse.CSC{P: w.sys.pattern, Val: make([]float64, w.sys.pattern.NNZ())}
	}
	w.EvalScaled(x, t, f, w.jac.Val, 1, 1)
	w.jac.ToDense(j)
}

// EvalScaled computes f(x, t) into f and, when jv is non-nil, the Jacobian
// df/dx into jv, its values on SparsePattern, under gmin/source
// continuation scaling: gminScale multiplies the circuit Gmin, srcScale
// every independent source. Both are overwritten.
func (w *Workspace) EvalScaled(x linalg.Vec, t float64, f linalg.Vec, jv []float64, gminScale, srcScale float64) {
	w.m.Inc(diag.CircuitEvals)
	if jv != nil {
		w.m.Inc(diag.CircuitJacEvals)
	}
	f.Zero()
	clear(jv)
	e := &w.ctx
	e.X, e.F, e.JV, e.t = x, f, jv, t
	e.WantJacobian, e.GminScale, e.SourceScale = jv != nil, gminScale, srcScale
	w.sys.plan.eval(e)
	// Drop slice references so the workspace does not pin caller buffers.
	e.X, e.F, e.JV = nil, nil, nil
}
