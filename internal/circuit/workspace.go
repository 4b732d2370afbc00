package circuit

import (
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// Workspace holds every piece of mutable per-evaluation scratch needed to
// run analyses against a (shared, immutable) System: the one-lane context
// its plans evaluate through, with the lane's time memo (rail V and dV/dt,
// source values and rail-controlled conductances at the last evaluated time
// — see Rail for the contract), plus F/J buffers for the derived quantities
// XDot and RHSJacobian.
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
	// scratch for XDotInto's residual
	fbuf linalg.Vec
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
	m := s.dense.lay.memo
	buf := make([]float64, s.N+m) // fbuf and the time memo share one allocation
	w := &Workspace{sys: s, fbuf: linalg.Vec(buf[:s.N:s.N])}
	w.ctx = EvalContext{N: s.N, Active: lane0, memo: nanFill(buf[s.N:]), keys: w.key[:], m: m, lanes: s.self[:]}
	return w
}

// System returns the shared immutable system the workspace evaluates.
func (w *Workspace) System() *System { return w.sys }

// eval runs plan p on the workspace's lane: x at time t into the zeroed f
// and, when wantJ, the zeroed Jacobian values jv on p's layout.
func (w *Workspace) eval(p *plan, x linalg.Vec, t float64, f linalg.Vec, jv []float64, wantJ bool, gminScale, srcScale float64) {
	w.m.Inc(diag.CircuitEvals)
	if wantJ {
		w.m.Inc(diag.CircuitJacEvals)
	}
	e := &w.ctx
	e.X, e.F, e.JV, e.NNZ, e.t = x, f, jv, len(jv), t
	e.WantJacobian, e.GminScale, e.SourceScale = wantJ, gminScale, srcScale
	p.eval(e)
	// Drop slice references so the workspace does not pin caller buffers.
	e.X, e.F, e.JV = nil, nil, nil
}

// EvalF computes f(x, t) into dst (allocated when nil).
func (w *Workspace) EvalF(x linalg.Vec, t float64, dst linalg.Vec) linalg.Vec {
	if dst == nil {
		dst = linalg.NewVec(w.sys.N)
	}
	dst.Zero()
	w.eval(w.sys.dense, x, t, dst, nil, false, 1, 1)
	return dst
}

// EvalFJ computes f and its Jacobian J = df/dx at (x, t); J is n×n.
func (w *Workspace) EvalFJ(x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat) {
	w.EvalScaled(x, t, f, j, 1, 1)
}

// EvalScaled is EvalFJ under gmin/source continuation scaling; j may be nil
// when only the residual is needed.
func (w *Workspace) EvalScaled(x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat, gminScale, srcScale float64) {
	f.Zero()
	var jv []float64
	if j != nil {
		j.Zero()
		jv = j.Data
	}
	w.eval(w.sys.dense, x, t, f, jv, j != nil, gminScale, srcScale)
}

// XDotInto computes ẋ = -C⁻¹·f(x, t) into dst (which must not alias x),
// using workspace scratch for the residual: hot loops pass a pinned
// destination and the evaluation touches only workspace scratch. Safe
// concurrently across workspaces — the shared System.CLU factorization is
// read-only under SolveInto.
func (w *Workspace) XDotInto(dst linalg.Vec, x linalg.Vec, t float64) linalg.Vec {
	f := w.EvalF(x, t, w.fbuf)
	f.Scale(-1)
	return w.sys.CLU.SolveInto(dst, f)
}

// EvalFJSparse computes f and the Jacobian df/dx into the CSC value array
// of sj, which must live on the system's SparsePattern. This is the
// sparse-backend analogue of EvalFJ: same kernels, same arithmetic, values
// landing in O(nnz) storage instead of an n×n matrix.
func (w *Workspace) EvalFJSparse(x linalg.Vec, t float64, f linalg.Vec, sj *sparse.CSC) {
	w.EvalScaledSparse(x, t, f, sj, 1, 1)
}

// EvalScaledSparse is EvalFJSparse under gmin/source continuation scaling,
// the stamp path behind the sparse DC-operating-point branch; sj may be nil
// when only the residual is needed.
func (w *Workspace) EvalScaledSparse(x linalg.Vec, t float64, f linalg.Vec, sj *sparse.CSC, gminScale, srcScale float64) {
	if sj == nil {
		w.EvalScaled(x, t, f, nil, gminScale, srcScale)
		return
	}
	p := w.sys.sparsePlan()
	if sj.P != w.sys.SparsePattern() {
		panic("circuit: EvalFJSparse values are not on the system's SparsePattern")
	}
	f.Zero()
	sj.Zero()
	w.eval(p, x, t, f, sj.Val, true, gminScale, srcScale)
}
