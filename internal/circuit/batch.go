package circuit

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// This file implements batched (structure-of-arrays) circuit evaluation:
// K parameter corners of the same topology evaluated in one call over
// contiguous arrays. The layout is lane-major — lane k's state is the
// contiguous block X[k·N : (k+1)·N], its residual F[k·N : (k+1)·N], and its
// Jacobian values JV[k·NNZ : (k+1)·NNZ] on the ONE sparse.Pattern shared by
// every lane — so a lane view is a plain subslice: per-lane linear solves
// need no gather, per-lane CSC views share the pattern pointer (and with it
// the KLU-style symbolic factorization), and fallback devices evaluate
// through the ordinary EvalContext with the lane block as its F.
//
// Bit-equality contract: for each lane, EvalFJBatch accumulates into every
// residual entry and Jacobian position in exactly the order the scalar
// evalInto does (devices in declaration order, then the Gmin diagonal, then
// rail-cap source terms), and the batched device kernels replicate the
// scalar models' floating-point expressions operation for operation. A
// lane of a batch therefore bit-equals a scalar Workspace.EvalFJ of the
// same corner; the property test in batch_test.go pins this.

// BatchLayout is the read-only geometry shared by a batch: lane count, node
// count, and the Jacobian pattern with slot resolution for device kernels.
type BatchLayout struct {
	K, N int
	pat  *sparse.Pattern
}

// Lanes returns the number of parameter corners in the batch.
func (l *BatchLayout) Lanes() int { return l.K }

// Nodes returns the per-lane ODE dimension.
func (l *BatchLayout) Nodes() int { return l.N }

// NNZ returns the per-lane Jacobian value count (pattern nonzeros).
func (l *BatchLayout) NNZ() int { return l.pat.NNZ() }

// Slot resolves the Jacobian value index of position (row, col) within one
// lane's value block, or −1 when either node is not free (the stamp is
// dropped, exactly like EvalContext.AddJac). Panics if both nodes are free
// but the position is absent from the pattern — the pattern is built from a
// probe evaluation of these same devices, so absence is a kernel bug.
func (l *BatchLayout) Slot(row, col NodeID) int {
	if !row.IsFree() || !col.IsFree() {
		return -1
	}
	s := l.pat.IndexOf(int(row), int(col))
	if s < 0 {
		panic(fmt.Sprintf("circuit: batch kernel stamps (%d,%d) outside the probed pattern", row, col))
	}
	return s
}

// FreeIndex returns the per-lane state index of a node, or −1 for rails.
func (l *BatchLayout) FreeIndex(n NodeID) int {
	if n.IsFree() {
		return int(n)
	}
	return -1
}

// BatchEvalContext carries one batched evaluation to device kernels. All
// slices are lane-major (see file comment); JV is nil when WantJacobian is
// false. Kernels must touch only the lanes listed in Active.
type BatchEvalContext struct {
	T float64
	// TL optionally holds per-lane evaluation times (length K); when non-nil
	// it overrides T for lane k. The batched transient integrator needs this:
	// lanes advance with per-lane step sizes, so at a common step index they
	// sit at different physical times.
	TL           []float64
	X            []float64 // K·N, read-only for kernels
	F            []float64 // K·N, accumulate KCL out-currents
	JV           []float64 // K·NNZ, accumulate Jacobian values by slot
	WantJacobian bool
	GminScale    float64
	SourceScale  float64
	// Active lists the lane indices to evaluate; converged or failed lanes
	// are excluded by the caller and their blocks must not be written.
	Active []int
	N, NNZ int

	ckts []*Circuit // per-lane circuits, for rail voltages
}

// LaneT returns lane k's evaluation time: TL[k] when per-lane times are set,
// the shared T otherwise.
func (bc *BatchEvalContext) LaneT(k int) float64 {
	if bc.TL != nil {
		return bc.TL[k]
	}
	return bc.T
}

// V returns the voltage of any node in lane k at the lane's time —
// lane state for free nodes, the lane circuit's rail waveform otherwise.
func (bc *BatchEvalContext) V(k int, n NodeID) float64 {
	if n.IsFree() {
		return bc.X[k*bc.N+int(n)]
	}
	return bc.ckts[k].RailVoltage(n, bc.LaneT(k))
}

// BatchKernel evaluates one device position across all active lanes.
type BatchKernel interface {
	EvalLanes(bc *BatchEvalContext)
}

// BatchKerneler is implemented by devices that can build a batched kernel.
// MakeBatchKernel receives the congruent device instances occupying the
// same netlist position in every lane (peers[0] is the receiver) and the
// batch geometry; it returns a kernel holding the per-lane parameters in
// structure-of-arrays form. Returning an error rejects the batch (the
// instances are topologically incongruent); devices that simply cannot be
// batched should not implement the interface — they evaluate through the
// scalar fallback instead.
type BatchKerneler interface {
	Device
	MakeBatchKernel(peers []Device, lay *BatchLayout) (BatchKernel, error)
}

// fallbackKernel evaluates a non-batchable device by running each lane's
// own scalar Eval with the lane block as the context's F and a CSC view of
// the lane's JV block as the sparse Jacobian sink. The view carries the
// batch's shared pattern, through which the device's AddJac stamps resolve
// their slots. Accumulation order per lane is identical to the scalar path
// by construction.
type fallbackKernel struct {
	peers []Device
	pat   *sparse.Pattern
}

func (fk *fallbackKernel) EvalLanes(bc *BatchEvalContext) {
	var ctx EvalContext
	view := sparse.CSC{P: fk.pat}
	for _, k := range bc.Active {
		ctx = EvalContext{
			ckt:          bc.ckts[k],
			T:            bc.LaneT(k),
			X:            bc.X[k*bc.N : (k+1)*bc.N],
			F:            bc.F[k*bc.N : (k+1)*bc.N],
			WantJacobian: bc.WantJacobian,
			GminScale:    bc.GminScale,
			SourceScale:  bc.SourceScale,
		}
		if bc.WantJacobian {
			view.Val = bc.JV[k*bc.NNZ : (k+1)*bc.NNZ]
			ctx.SJ = &view
		}
		fk.peers[k].Eval(&ctx)
	}
}

// Batch is the immutable plan for evaluating K congruent systems together:
// the shared pattern, the per-device kernels, per-lane capacitance values
// on the pattern, and the per-lane rail-cap lists. Like System, a Batch is
// safe for concurrent use; all mutable scratch lives in BatchWorkspace.
type Batch struct {
	K, N    int
	Systems []*System
	lay     BatchLayout
	kernels []BatchKernel
	// Fallbacks counts kernels running through the scalar per-lane path —
	// an observability hook for "why is this batch not faster".
	Fallbacks int
	diagSlots []int       // pattern slot of (i,i), for the Gmin loop
	cVals     [][]float64 // per-lane C on the shared pattern
	ckts      []*Circuit
}

// NewBatch validates that the systems are congruent — same node count,
// same device list shape, identical Jacobian pattern — and builds the
// batched evaluation plan. Lane 0's pattern becomes the batch's shared
// pattern object, so every per-lane CSC view carries the same pattern
// pointer (sparse.LU symbolic factorizations are reused across lanes).
func NewBatch(systems []*System) (*Batch, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("circuit: empty batch")
	}
	s0 := systems[0]
	pat := s0.SparsePattern()
	for k, s := range systems {
		if s.N != s0.N {
			return nil, fmt.Errorf("circuit: batch lane %d has %d nodes, lane 0 has %d", k, s.N, s0.N)
		}
		if len(s.Ckt.devices) != len(s0.Ckt.devices) {
			return nil, fmt.Errorf("circuit: batch lane %d has %d devices, lane 0 has %d", k, len(s.Ckt.devices), len(s0.Ckt.devices))
		}
		if len(s.railCaps) != len(s0.railCaps) {
			return nil, fmt.Errorf("circuit: batch lane %d has %d rail caps, lane 0 has %d", k, len(s.railCaps), len(s0.railCaps))
		}
		for i, rc := range s.railCaps {
			if rc.node != s0.railCaps[i].node || rc.rail != s0.railCaps[i].rail {
				return nil, fmt.Errorf("circuit: batch lane %d rail cap %d attaches to different nodes", k, i)
			}
		}
		if k > 0 && !samePattern(pat, s.SparsePattern()) {
			return nil, fmt.Errorf("circuit: batch lane %d has a different Jacobian pattern", k)
		}
	}
	b := &Batch{
		K:       len(systems),
		N:       s0.N,
		Systems: systems,
		lay:     BatchLayout{K: len(systems), N: s0.N, pat: pat},
		ckts:    make([]*Circuit, len(systems)),
	}
	for k, s := range systems {
		b.ckts[k] = s.Ckt
	}
	// Per-device kernels, in declaration order.
	peers := make([]Device, b.K)
	for di := range s0.Ckt.devices {
		for k, s := range systems {
			peers[k] = s.Ckt.devices[di]
		}
		kn, err := makeKernel(peers, &b.lay)
		if err != nil {
			return nil, fmt.Errorf("circuit: batch device %d (%s): %w", di, s0.Ckt.devices[di].Label(), err)
		}
		if _, fb := kn.(*fallbackKernel); fb {
			b.Fallbacks++
		}
		b.kernels = append(b.kernels, kn)
	}
	b.diagSlots = make([]int, b.N)
	for i := 0; i < b.N; i++ {
		b.diagSlots[i] = pat.IndexOf(i, i) // structurally present by construction
	}
	// Gather each lane's C onto the shared pattern (structure validated
	// congruent above via the pattern check; values differ per corner).
	b.cVals = make([][]float64, b.K)
	for k, s := range systems {
		cv := make([]float64, pat.NNZ())
		for j := 0; j < b.N; j++ {
			for p := pat.ColPtr[j]; p < pat.ColPtr[j+1]; p++ {
				cv[p] = s.C.At(pat.Rows[p], j)
			}
		}
		b.cVals[k] = cv
	}
	return b, nil
}

// makeKernel builds the kernel for one device position: the device's own
// batched kernel when every peer implements BatchKerneler, the scalar
// fallback otherwise.
func makeKernel(peers []Device, lay *BatchLayout) (BatchKernel, error) {
	bk, ok := peers[0].(BatchKerneler)
	if !ok {
		return &fallbackKernel{peers: append([]Device(nil), peers...), pat: lay.pat}, nil
	}
	for _, p := range peers[1:] {
		if _, ok := p.(BatchKerneler); !ok {
			return nil, fmt.Errorf("lane device type mismatch: %T vs %T", peers[0], p)
		}
	}
	return bk.MakeBatchKernel(peers, lay)
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
func (b *Batch) Pattern() *sparse.Pattern { return b.lay.pat }

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
	bc     BatchEvalContext
	m      *diag.Metrics
}

// NewWorkspace returns a fresh, independent batched evaluation workspace.
func (b *Batch) NewWorkspace() *BatchWorkspace {
	w := &BatchWorkspace{
		b:  b,
		F:  make([]float64, b.K*b.N),
		JV: make([]float64, b.K*b.lay.pat.NNZ()),
	}
	w.active = make([]int, b.K)
	for k := range w.active {
		w.active[k] = k
	}
	w.bc = BatchEvalContext{N: b.N, NNZ: b.lay.pat.NNZ(), ckts: b.ckts}
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

// LaneJ returns lane k's Jacobian from the last EvalFJBatch as a CSC view
// on the shared pattern. The view aliases w.JV; it is valid until the next
// evaluation.
func (w *BatchWorkspace) LaneJ(k int) *sparse.CSC {
	nnz := w.b.lay.pat.NNZ()
	return &sparse.CSC{P: w.b.lay.pat, Val: w.JV[k*nnz : (k+1)*nnz]}
}

// LaneJDense gathers lane k's Jacobian into the dense dst (N×N).
func (w *BatchWorkspace) LaneJDense(dst *linalg.Mat, k int) *linalg.Mat {
	p := w.b.lay.pat
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
	w.evalBatch(x, t, true, 1, 1)
}

// EvalFBatch evaluates the residual only (w.JV untouched).
func (w *BatchWorkspace) EvalFBatch(x []float64, t float64) {
	w.evalBatch(x, t, false, 1, 1)
}

// EvalScaledBatch is EvalFJBatch under gmin/source continuation scaling;
// wantJ=false skips the Jacobian.
func (w *BatchWorkspace) EvalScaledBatch(x []float64, t float64, wantJ bool, gminScale, srcScale float64) {
	w.evalBatch(x, t, wantJ, gminScale, srcScale)
}

// EvalBatchAt is the per-lane-time evaluation: lane k is evaluated at tl[k]
// (tl has length K). Everything else matches EvalFJBatch/EvalFBatch.
func (w *BatchWorkspace) EvalBatchAt(x []float64, tl []float64, wantJ bool) {
	if len(tl) != w.b.K {
		panic("circuit: EvalBatchAt lane-time length mismatch")
	}
	w.bc.TL = tl
	w.evalBatch(x, 0, wantJ, 1, 1)
	w.bc.TL = nil
}

func (w *BatchWorkspace) evalBatch(x []float64, t float64, wantJ bool, gminScale, srcScale float64) {
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
	nnz := b.lay.pat.NNZ()
	for _, k := range w.active {
		blk := w.F[k*b.N : (k+1)*b.N]
		for i := range blk {
			blk[i] = 0
		}
		if wantJ {
			jblk := w.JV[k*nnz : (k+1)*nnz]
			for i := range jblk {
				jblk[i] = 0
			}
		}
	}
	bc := &w.bc
	bc.T = t
	bc.X = x
	bc.F = w.F
	bc.WantJacobian = wantJ
	if wantJ {
		bc.JV = w.JV
	} else {
		bc.JV = nil
	}
	bc.GminScale = gminScale
	bc.SourceScale = srcScale
	bc.Active = w.active
	// Devices in declaration order (kernels loop lanes innermost), then the
	// Gmin diagonal, then rail-cap source terms — the scalar evalInto order,
	// per lane.
	for _, kn := range b.kernels {
		kn.EvalLanes(bc)
	}
	for _, k := range w.active {
		base := k * b.N
		jbase := k * nnz
		g := b.ckts[k].Gmin * gminScale
		for i := 0; i < b.N; i++ {
			w.F[base+i] += g * x[base+i]
			if wantJ {
				w.JV[jbase+b.diagSlots[i]] += g
			}
		}
	}
	for _, k := range w.active {
		base := k * b.N
		tk := bc.LaneT(k)
		for _, rc := range b.Systems[k].railCaps {
			w.F[base+rc.node] -= rc.cap * b.ckts[k].railDVDt(rc.rail, tk)
		}
	}
	bc.X, bc.F, bc.JV = nil, nil, nil
}
