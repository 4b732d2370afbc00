package circuit

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// This file implements batched (structure-of-arrays) circuit evaluation:
// K parameter corners of the same topology evaluated in one call over
// contiguous arrays by one K-lane plan (see plan.go). The layout is
// lane-major — lane k's state is the contiguous block X[k·N : (k+1)·N], its
// residual F[k·N : (k+1)·N], and its Jacobian values JV[k·NNZ : (k+1)·NNZ]
// on the ONE sparse.Pattern shared by every lane — so a lane view is a
// plain subslice: per-lane linear solves need no gather, and per-lane CSC
// views share the pattern pointer (and with it the KLU-style symbolic
// factorization). Per lane the result bit-equals Workspace.EvalFJ of the
// same corner; the property test in batch_test.go pins this.

// Batch is the immutable plan for evaluating K congruent systems together:
// the shared pattern, the K-lane plan, and per-lane capacitance values on
// the pattern. Like System, a Batch is safe for concurrent use; all mutable
// scratch lives in BatchWorkspace.
type Batch struct {
	K, N    int
	Systems []*System
	pat     *sparse.Pattern
	plan    *plan
	cVals   [][]float64 // per-lane C on the shared pattern
}

// NewBatch validates that the systems are congruent — same node count,
// rails and rail capacitors, capacitance pattern, and device types and
// terminals position by position — and builds the batched evaluation plan.
// Lane 0's pattern becomes the batch's shared pattern object, so every
// per-lane CSC view carries the same pattern pointer (sparse.LU symbolic
// factorizations are reused across lanes). A one-lane batch evaluates
// through its system's own sparse plan.
func NewBatch(systems []*System) (*Batch, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("circuit: empty batch")
	}
	s0 := systems[0]
	for k, s := range systems {
		switch {
		case s.N != s0.N:
			return nil, fmt.Errorf("circuit: batch lane %d has %d nodes, lane 0 has %d", k, s.N, s0.N)
		case len(s.Ckt.devices) != len(s0.Ckt.devices):
			return nil, fmt.Errorf("circuit: batch lane %d has %d devices, lane 0 has %d", k, len(s.Ckt.devices), len(s0.Ckt.devices))
		case len(s.Ckt.rails) != len(s0.Ckt.rails):
			return nil, fmt.Errorf("circuit: batch lane %d has %d rails, lane 0 has %d", k, len(s.Ckt.rails), len(s0.Ckt.rails))
		case len(s.railCaps) != len(s0.railCaps):
			return nil, fmt.Errorf("circuit: batch lane %d has %d rail caps, lane 0 has %d", k, len(s.railCaps), len(s0.railCaps))
		case !samePattern(s.cNZ.P, s0.cNZ.P):
			return nil, fmt.Errorf("circuit: batch lane %d has a different capacitance pattern", k)
		}
		for i, rc := range s.railCaps {
			if rc.node != s0.railCaps[i].node || rc.rail != s0.railCaps[i].rail {
				return nil, fmt.Errorf("circuit: batch lane %d rail cap %d attaches to different nodes", k, i)
			}
		}
	}
	pat := s0.SparsePattern()
	b := &Batch{K: len(systems), N: s0.N, Systems: systems, pat: pat, plan: s0.sparsePlan()}
	if b.K > 1 {
		var err error
		if b.plan, err = newPlan(systems, pat); err != nil {
			return nil, fmt.Errorf("circuit: batch: %w", err)
		}
	}
	// Each lane's C on the shared pattern (C's pattern is the same in every
	// lane; values differ per corner). Lane 0's pattern is the shared one,
	// so its system's SparseC already holds its values there; the other
	// lanes' are gathered.
	b.cVals = make([][]float64, b.K)
	b.cVals[0] = s0.SparseC().Val
	for k := 1; k < b.K; k++ {
		cv := make([]float64, pat.NNZ())
		for j := 0; j < b.N; j++ {
			for p := pat.ColPtr[j]; p < pat.ColPtr[j+1]; p++ {
				cv[p] = systems[k].C.At(pat.Rows[p], j)
			}
		}
		b.cVals[k] = cv
	}
	return b, nil
}

func samePattern(a, b *sparse.Pattern) bool {
	if a == b {
		return true
	}
	if a.N != b.N || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.ColPtr {
		if a.ColPtr[i] != b.ColPtr[i] {
			return false
		}
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return false
		}
	}
	return true
}

// Pattern returns the shared per-lane Jacobian pattern.
func (b *Batch) Pattern() *sparse.Pattern { return b.pat }

// CVals returns lane k's capacitance values on the shared pattern
// (read-only; aligned with Pattern()).
func (b *Batch) CVals(k int) []float64 { return b.cVals[k] }

// BatchWorkspace is the mutable scratch for batched evaluation: the F/JV
// result arrays, the active-lane set, and the reusable batch context. Like
// Workspace it is NOT safe for concurrent use — one per goroutine.
type BatchWorkspace struct {
	b *Batch
	// F and JV hold the last evaluation's results, lane-major.
	F  []float64
	JV []float64
	// active is the current lane subset (defaults to all lanes).
	active []int
	ctx    EvalContext
	m      *diag.Metrics
}

// NewWorkspace returns a fresh, independent batched evaluation workspace.
func (b *Batch) NewWorkspace() *BatchWorkspace {
	nnz, m := b.pat.NNZ(), b.plan.lay.memo
	buf := make([]float64, b.K*(b.N+m)) // F and the lanes' time memos
	w := &BatchWorkspace{
		b:  b,
		F:  buf[: b.K*b.N : b.K*b.N],
		JV: make([]float64, b.K*nnz),
	}
	w.active = make([]int, b.K)
	for k := range w.active {
		w.active[k] = k
	}
	w.ctx = EvalContext{N: b.N, NNZ: nnz, memo: nanFill(buf[b.K*b.N:]), keys: make([]uint64, b.K), m: m, lanes: b.Systems}
	return w
}

// Batch returns the shared immutable plan this workspace evaluates.
func (w *BatchWorkspace) Batch() *Batch { return w.b }

// SetMetrics attaches a diagnostics collector (nil disables).
func (w *BatchWorkspace) SetMetrics(m *diag.Metrics) { w.m = m }

// SetActive restricts evaluation to the given lane subset (aliased, not
// copied). Inactive lanes' F/JV blocks are left untouched.
func (w *BatchWorkspace) SetActive(lanes []int) { w.active = lanes }

// Active returns the current active-lane set.
func (w *BatchWorkspace) Active() []int { return w.active }

// LaneX returns lane k's block of a lane-major state vector.
func (w *BatchWorkspace) LaneX(x []float64, k int) []float64 {
	return x[k*w.b.N : (k+1)*w.b.N]
}

// LaneF returns lane k's residual block from the last evaluation.
func (w *BatchWorkspace) LaneF(k int) []float64 {
	return w.F[k*w.b.N : (k+1)*w.b.N]
}

// LaneJDense gathers lane k's Jacobian into the dense dst (N×N).
func (w *BatchWorkspace) LaneJDense(dst *linalg.Mat, k int) *linalg.Mat {
	p := w.b.pat
	nnz := p.NNZ()
	dst.Zero()
	base := k * nnz
	for j := 0; j < p.N; j++ {
		for s := p.ColPtr[j]; s < p.ColPtr[j+1]; s++ {
			dst.Set(p.Rows[s], j, w.JV[base+s])
		}
	}
	return dst
}

// EvalFJBatch evaluates f and the Jacobian for every active lane at (x, t):
// x is lane-major K·N, results land in w.F and w.JV. Per lane this is
// bit-identical to Workspace.EvalFJ of the same corner.
func (w *BatchWorkspace) EvalFJBatch(x []float64, t float64) {
	w.evalBatch(x, t, true)
}

// EvalFBatch evaluates the residual only (w.JV untouched).
func (w *BatchWorkspace) EvalFBatch(x []float64, t float64) {
	w.evalBatch(x, t, false)
}

// EvalBatchAt is the per-lane-time evaluation: lane k is evaluated at tl[k]
// (tl has length K). Everything else matches EvalFJBatch/EvalFBatch.
func (w *BatchWorkspace) EvalBatchAt(x []float64, tl []float64, wantJ bool) {
	if len(tl) != w.b.K {
		panic("circuit: EvalBatchAt lane-time length mismatch")
	}
	w.ctx.tl = tl
	w.evalBatch(x, 0, wantJ)
	w.ctx.tl = nil
}

func (w *BatchWorkspace) evalBatch(x []float64, t float64, wantJ bool) {
	b := w.b
	if len(x) != b.K*b.N {
		panic("circuit: EvalFJBatch state length mismatch")
	}
	w.m.Inc(diag.BatchEvals)
	w.m.Add(diag.BatchLaneEvals, int64(len(w.active)))
	w.m.Add(diag.CircuitEvals, int64(len(w.active)))
	if wantJ {
		w.m.Add(diag.CircuitJacEvals, int64(len(w.active)))
	}
	e := &w.ctx
	for _, k := range w.active {
		clear(w.F[k*b.N : (k+1)*b.N])
		if wantJ {
			clear(w.JV[k*e.NNZ : (k+1)*e.NNZ])
		}
	}
	e.X, e.F, e.JV, e.t, e.Active = x, w.F, nil, t, w.active
	if wantJ {
		e.JV = w.JV
	}
	e.WantJacobian, e.GminScale, e.SourceScale = wantJ, 1, 1
	b.plan.eval(e)
	e.X, e.F, e.JV = nil, nil, nil
}
