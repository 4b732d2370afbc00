package transient

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/solver"
)

// This file implements the transient integrator, written once for the K
// parameter corners of a circuit.Batch: each lane integrates its own
// interval under its own step control, and every circuit evaluation is
// fanned across the lanes that need it in one EvalBatchAt call. A single
// circuit's run (Scratch.Run) is a one-lane batch. The per-lane linear
// algebra runs on the backend's matrix type (matrix.go) and every step on
// the corrector's pieces (corrector.go) under the one Newton policy — in
// sensitivity runs the accepted point's evaluation serves the next step as
// f0 and J0, and its factored sensitivity system as the first iteration
// matrix. Lanes are independent: a lane of a K-lane run computes what a
// one-lane run of its circuit does, bit for bit.
//
// A lane's step control (see lane) takes one of two forms. A fixed-step
// lane walks the grid T0 + k·h up to T1, with a shorter last step landing
// on T1. A θ lane whose corrector fails retakes that grid step in halves,
// each halved again while its corrector fails, down to MinStep, below
// which the lane fails with ErrStepUnderflow; it lands back on its grid,
// so it records grid points only. A Gear2 lane takes a BE first step, then
// BDF2 steps, and BE again for a shorter last step (BDF2's coefficients
// assume equal steps); it fails a step without retrying. An adaptive θ lane
// steps from T0 to T1 under the local-error controller, halving its step
// on a corrector failure. A failed lane is frozen at its last accepted
// state and reported in BatchResult.Err.

// BatchOptions configures a batched run: lane k integrates from T0[k] to
// T1[k] under Options, which the lanes share, with step H[k].
type BatchOptions struct {
	// Options holds every lane's method, step control, corrector,
	// sensitivity, record decimation and backend. Its Step is every lane's
	// step when H is nil; MinStep and MaxStep default per lane, to H[k]/1e6
	// and 100·H[k].
	Options
	// H optionally gives per-lane steps (nil → Options.Step for all lanes).
	H []float64
	// T0 optionally gives per-lane start times (nil → all lanes start at
	// 0); T1 gives the per-lane end times (required).
	T0, T1 []float64
	// RecordWave records each lane's time axis and the waveform of free
	// node RecordNode; RecordStates records its time axis and full states.
	// A lane records its start, every Record-th point of its grid (or
	// accepted point, adaptive), a Gear2 lane's BE first step, and its end.
	RecordWave   bool
	RecordNode   int
	RecordStates bool
	// Active restricts the run to a lane subset (nil → all lanes). Inactive
	// lanes' state blocks pass through untouched.
	Active []int
}

// BatchResult holds the outcome of a batched run. Per-lane failures are
// reported in Err (indexed by lane); the run itself only errors on misuse
// or cancellation.
type BatchResult struct {
	K, N int
	// X is the lane-major final state: completed lanes hold x(T1[k]),
	// failed lanes freeze at their last accepted state, inactive lanes pass
	// the input through.
	X []float64
	// Sens[k] is lane k's monodromy dx(T1[k])/dx(T0[k]) (Sensitivity runs;
	// nil for failed or inactive lanes).
	Sens []*linalg.Mat
	// Err[k] is lane k's first failure, nil for lanes that completed.
	Err []error
	// Steps counts accepted steps, Rejected halved and rejected ones, and
	// NewtonIters corrector iterations, those of failed attempts included,
	// all over every lane (cost metrics).
	Steps, Rejected, NewtonIters int
	// T holds the per-lane recorded time axes, NodeV the node waveforms
	// (RecordWave) and States the full trajectories (RecordStates). The
	// states share per-lane backing storage, so callers must never append
	// to or re-slice one.
	T      [][]float64
	NodeV  [][]float64
	States [][]linalg.Vec
}

// LaneX returns lane k's block of the final state.
func (r *BatchResult) LaneX(k int) linalg.Vec {
	return linalg.Vec(r.X[k*r.N : (k+1)*r.N])
}

// lane is one lane's step control and the history its next step starts
// from.
type lane struct {
	g stepGrid // the grid from T0 to T1; an adaptive lane reads its t1 only
	k int      // the grid point a fixed-step lane is at
	// A fixed-step lane retaking grid step k in halves is depth halvings
	// deep, q sub-steps of g.size(k)/2^depth into the step.
	depth, q         int
	h                float64 // an adaptive lane's next step
	minStep, maxStep float64
	// The step being attempted: its formula step, and whether it is BDF2.
	hf  float64
	bdf bool
	// The last two accepted steps (0 until taken), for the predictor.
	h1, h2 float64
	// carry is the step size of the iteration matrix the lane's matrix
	// holds factored at the lane's point — the sensitivity system its last
	// accepted step left — or 0 for none.
	carry float64
	// cached says f0, and in sensitivity runs jcache, hold the evaluation
	// at the lane's point.
	cached bool
	since  int // grid (or accepted) points since the last recorded one
	pol    newtonPolicy
	err    error       // the attempt's corrector failure
	sPrev  *linalg.Mat // a Gear2 lane's S_{n−1}, the monodromy a step back
}

// attempt sets the formula step of the lane's next step from time t and
// returns the time it ends at.
func (ln *lane) attempt(t float64, adaptive bool) float64 {
	if adaptive {
		if t+ln.h > ln.g.t1 {
			ln.h = ln.g.t1 - t
		}
		ln.hf = ln.h
		return t + ln.h
	}
	ln.hf = ln.g.size(ln.k)
	if ln.depth > 0 {
		ln.hf = math.Ldexp(ln.hf, -ln.depth)
		if ln.q+1 < 1<<ln.depth {
			return t + ln.hf
		}
	}
	return ln.g.at(ln.k + 1)
}

// maxDepth bounds how deep a fixed-step lane halves one grid step, so its
// sub-step count fits an int (a MinStep of Step/1e6 allows 20 halvings).
const maxDepth = 62

// retry sets the lane up to retake its failed step in halves: an adaptive
// lane's next step is half of it, a fixed-step lane's next sub-step the
// first half of it. It reports false when the half is below the floor.
func (ln *lane) retry(adaptive bool) bool {
	h := ln.hf / 2
	if h < ln.minStep || h == 0 || ln.depth == maxDepth {
		return false
	}
	if adaptive {
		ln.h = h
	} else {
		ln.depth, ln.q = ln.depth+1, 2*ln.q
	}
	return true
}

// advance moves the step control past an accepted step and reports
// whether the lane is on a point it may record: any accepted point of an
// adaptive lane, a grid point of a fixed-step one.
func (ln *lane) advance(adaptive bool) bool {
	ln.h2, ln.h1 = ln.h1, ln.hf
	if adaptive {
		return true
	}
	if ln.depth > 0 {
		ln.q++
		for ln.depth > 0 && ln.q%2 == 0 {
			ln.depth, ln.q = ln.depth-1, ln.q/2
		}
		if ln.depth > 0 {
			return false
		}
		ln.q = 0
	}
	ln.k++
	return true
}

// done reports whether the lane at time t has reached its end.
func (ln *lane) done(t float64, adaptive bool) bool {
	if adaptive {
		return t >= ln.g.t1-1e-15*math.Max(1, math.Abs(ln.g.t1))
	}
	return ln.k == ln.g.n
}

// BatchScratch pins every reusable buffer a batched integration needs: the
// batch evaluation workspace, the lane-major state arrays, one
// factorization per lane (dense or sparse, symbolic analysis retained
// across steps and runs), and the accepted-point Jacobian cache that lets
// consecutive sensitivity steps share one evaluation. NOT safe for
// concurrent use — one BatchScratch per goroutine.
type BatchScratch struct {
	b         *circuit.Batch
	bw        *circuit.BatchWorkspace
	K, N, nnz int

	// Lane-major per-run state: x at time tl, the step's iterate x1 at
	// tl1, the accepted points prev and prev2 before x, for the predictor
	// (prev is also BDF2's x_{n−1}), and f at (x, tl).
	x, x1, prev, prev2, f0 []float64
	tl, tl1                []float64
	// jcache holds J at (x, tl) for lanes whose cached flag is set, in
	// sensitivity runs.
	jcache []float64
	lanes  []lane
	// arenas[k] carves lane k's recorded states from the run's storage.
	arenas []vecArena

	// Solve scratch the lanes share: they correct one at a time.
	resid, dxv linalg.Vec
	// Lane k's corrector: its C, and C scaled for its step, on the batch
	// pattern.
	cors []corrector
	// Per-lane matrices on backend be (made on first use, remade when the
	// backend changes): lane k's mats[k] factors its iteration matrices and,
	// in sensitivity runs, its sensitivity system, which the next step's
	// Newton starts from. The lanes' matrices share one value array and
	// factor each on their own.
	be   linalg.Backend
	mats []matrix
	// Sensitivity scratch (lazy): the propagator's right-hand matrix and
	// n×n products (tmp2 for BDF2 only), shared by the lanes.
	rhs       matrix
	tmp, tmp2 *linalg.Mat

	// Lane bookkeeping: the lanes still integrating, those of them still
	// iterating and those refactoring or taking a chord iteration next, the
	// lanes whose point is not evaluated, and the lanes whose step was
	// accepted.
	live, iterLanes, factorLanes, chordLanes, needEval, accepted []int

	pin pins
}

// NewBatchScratch returns a scratch for batched integration over b.
func NewBatchScratch(b *circuit.Batch) *BatchScratch {
	k, n, nnz := b.K, b.N, b.Pattern().NNZ()
	size := 5*k*n + 2*k + 2*k*nnz + 2*n
	v := make([]float64, size)
	cut := func(size int) []float64 {
		s := v[:size:size]
		v = v[size:]
		return s
	}
	idx := make([]int, 6*k)
	lanes := func() []int {
		s := idx[:0:k]
		idx = idx[k:]
		return s
	}
	sc := &BatchScratch{
		b: b, bw: b.NewWorkspace(),
		K: k, N: n, nnz: nnz,
		x: cut(k * n), x1: cut(k * n), prev: cut(k * n), prev2: cut(k * n), f0: cut(k * n),
		tl: cut(k), tl1: cut(k),
		jcache: cut(k * nnz), lanes: make([]lane, k), arenas: make([]vecArena, k),
		resid: cut(n), dxv: cut(n),
		live: lanes(), iterLanes: lanes(), factorLanes: lanes(), chordLanes: lanes(),
		needEval: lanes(), accepted: lanes(),
		cors: make([]corrector, k),
	}
	for i, s := range b.Systems {
		sc.cors[i] = newCorrector(s, b.CVals(i), cut(nnz), sc.dxv)
	}
	sc.pin.add(size)
	return sc
}

// ensureLanes makes the per-lane matrices for backend be.
func (sc *BatchScratch) ensureLanes(be linalg.Backend) {
	if sc.mats == nil || sc.be != be {
		sc.mats = newMatrices(be, sc.N, sc.b.Pattern(), sc.K, &sc.pin)
		sc.be, sc.rhs, sc.tmp, sc.tmp2 = be, nil, nil, nil
	}
}

// RunBatch integrates all lanes of b from the lane-major state x0 through a
// private scratch. Loops that re-run batched transients (batched shooting)
// hold a BatchScratch and call its Run method instead.
func RunBatch(ctx context.Context, b *circuit.Batch, x0 []float64, opt BatchOptions) (*BatchResult, error) {
	return NewBatchScratch(b).Run(ctx, x0, opt)
}

// Run integrates the batch: every lane k advances from x0's lane block at
// time opt.T0[k] (or 0) to opt.T1[k].
func (sc *BatchScratch) Run(ctx context.Context, x0 []float64, opt BatchOptions) (*BatchResult, error) {
	defer diag.SpanFrom(ctx, "transient.batch").End()
	return sc.run(ctx, x0, opt)
}

// check validates opt against the batch and x0, fills in its defaults and
// sets the live lanes.
func (sc *BatchScratch) check(x0 []float64, opt *BatchOptions) error {
	K := sc.K
	if opt.Method == Gear2 && opt.Adaptive {
		return ErrGear2Adaptive
	}
	if len(x0) != K*sc.N {
		return fmt.Errorf("transient: x0 has length %d, want %d", len(x0), K*sc.N)
	}
	for _, f := range [...]struct {
		name string
		v    []float64
	}{{"H", opt.H}, {"T0", opt.T0}, {"T1", opt.T1}} {
		if (f.v != nil || f.name == "T1") && len(f.v) != K {
			return fmt.Errorf("transient: BatchOptions.%s has %d lanes, batch has %d", f.name, len(f.v), K)
		}
	}
	if opt.H == nil && (!(opt.Step > 0) || math.IsInf(opt.Step, 1)) {
		return fmt.Errorf("transient: Options.Step = %g must be positive and finite", opt.Step)
	}
	for k, h := range opt.H {
		if !(h > 0) || math.IsInf(h, 1) {
			return fmt.Errorf("transient: BatchOptions.H[%d] = %g must be positive and finite", k, h)
		}
	}
	if opt.RecordWave && (opt.RecordNode < 0 || opt.RecordNode >= sc.N) {
		return fmt.Errorf("transient: BatchOptions.RecordNode %d out of range [0,%d)", opt.RecordNode, sc.N)
	}
	sc.live = sc.live[:0]
	for _, k := range opt.Active {
		if k < 0 || k >= K {
			return fmt.Errorf("transient: BatchOptions.Active lane %d out of range [0,%d)", k, K)
		}
		sc.live = append(sc.live, k)
	}
	if opt.Active == nil {
		for k := 0; k < K; k++ {
			sc.live = append(sc.live, k)
		}
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
	if opt.Record <= 0 {
		opt.Record = 1
	}
	return nil
}

// run is Run without its span.
func (sc *BatchScratch) run(ctx context.Context, x0 []float64, opt BatchOptions) (*BatchResult, error) {
	if err := sc.check(x0, &opt); err != nil {
		return nil, err
	}
	K, n := sc.K, sc.N
	vtol := updateTol(opt.NewtonTol)
	// Gear2 lanes take their BE steps at θ = 1.
	gear, adaptive := opt.Method == Gear2, opt.Adaptive
	th := 1.0
	if !gear {
		th = opt.Method.theta()
	}
	sc.ensureLanes(sc.b.Systems[0].ResolveBackend(opt.Backend))
	if opt.Sensitivity && sc.rhs == nil {
		sc.rhs, sc.tmp = sc.mats[0].sibling(), sc.pin.mat(n)
	}
	if opt.Sensitivity && gear && sc.tmp2 == nil {
		sc.tmp2 = sc.pin.mat(n)
	}
	dm := diag.FromContext(ctx)
	defer sc.pin.report(dm)
	sc.bw.SetMetrics(dm)

	res := &BatchResult{K: K, N: n, Err: make([]error, K)}
	copy(sc.x, x0)
	if opt.Sensitivity {
		res.Sens = make([]*linalg.Mat, K)
	}
	for _, k := range sc.live {
		h, t0 := opt.Step, 0.0
		if opt.H != nil {
			h = opt.H[k]
		}
		if opt.T0 != nil {
			t0 = opt.T0[k]
		}
		ln := &sc.lanes[k]
		*ln = lane{g: newStepGrid(t0, opt.T1[k], h), h: h, minStep: opt.MinStep, maxStep: opt.MaxStep}
		if ln.minStep == 0 {
			ln.minStep = h / 1e6
		}
		if ln.maxStep == 0 {
			ln.maxStep = 100 * h
		}
		sc.tl[k] = t0
		if opt.Sensitivity {
			res.Sens[k] = linalg.Eye(n)
			if gear {
				ln.sPrev = linalg.NewMat(n, n)
			}
		}
	}
	sc.allocRecords(res, &opt)
	record := func(k int) {
		if res.T != nil {
			res.T[k] = append(res.T[k], sc.tl[k])
		}
		if opt.RecordWave {
			res.NodeV[k] = append(res.NodeV[k], sc.x[k*n+opt.RecordNode])
		}
		if opt.RecordStates {
			res.States[k] = append(res.States[k], sc.arenas[k].clone(sc.x[k*n:(k+1)*n]))
		}
		sc.lanes[k].since = 0
	}
	for _, k := range sc.live {
		record(k)
	}
	fail := func(k int, err error) {
		res.Err[k] = err
		if res.Sens != nil {
			res.Sens[k] = nil
		}
	}
	// prune drops the lanes that failed or reached their end.
	prune := func() {
		w := 0
		for _, k := range sc.live {
			if res.Err[k] == nil && !sc.lanes[k].done(sc.tl[k], adaptive) {
				sc.live[w] = k
				w++
			}
		}
		sc.live = sc.live[:w]
	}
	prune()

	for len(sc.live) > 0 {
		if err := ctx.Err(); err != nil {
			res.X = append([]float64(nil), sc.x...)
			return res, err
		}
		// Each lane's step: its end time and formula step, its predictor,
		// and whether Newton starts from the factorization the lane
		// carries — never a sub-step of a step retaken in halves, which
		// refactors first.
		for _, k := range sc.live {
			ln := &sc.lanes[k]
			sc.tl1[k] = ln.attempt(sc.tl[k], adaptive)
			ln.bdf = gear && ln.k > 0 && ln.hf == ln.g.h
			sc.predictLane(k, gear)
			ln.pol = newtonPolicy{chord: ln.depth == 0 && ln.carry == ln.hf}
		}
		sc.evalPoints(opt.Sensitivity)
		res.NewtonIters += sc.newton(th, vtol, opt.MaxNewton, dm)

		// Judge each attempt: a θ lane whose corrector failed halves its
		// step, an adaptive one whose local error is too large too.
		sc.accepted = sc.accepted[:0]
		for _, k := range sc.live {
			ln := &sc.lanes[k]
			cause := ln.err
			ln.err = nil
			if cause == nil {
				if !adaptive || !sc.rejectLTE(k, opt.LTETol) {
					sc.accepted = append(sc.accepted, k)
					continue
				}
			} else if gear {
				fail(k, fmt.Errorf("transient: Gear2 corrector failed at t=%.6g: %w", sc.tl[k], cause))
				continue
			} else if !ln.retry(adaptive) {
				fail(k, underflow(sc.tl[k], cause))
				continue
			}
			res.Rejected++
			dm.Inc(diag.TransientRejections)
		}

		if opt.Sensitivity && len(sc.accepted) > 0 {
			// One evaluation at the accepted states serves as the steps' J1
			// and, for θ lanes, as the next step's f0 and J0 (same point,
			// same time).
			sc.bw.SetActive(sc.accepted)
			sc.bw.EvalBatchAt(sc.x1, sc.tl1, true)
			for _, k := range sc.accepted {
				if err := sc.propagate(k, th, gear, res.Sens[k], dm); err != nil {
					fail(k, fmt.Errorf("transient: sensitivity failed at t=%.6g: %w", sc.tl1[k], err))
				}
			}
		}

		for _, k := range sc.accepted {
			if res.Err[k] != nil {
				continue
			}
			ln := &sc.lanes[k]
			base := k * n
			copy(sc.prev2[base:base+n], sc.prev[base:base+n])
			copy(sc.prev[base:base+n], sc.x[base:base+n])
			copy(sc.x[base:base+n], sc.x1[base:base+n])
			sc.tl[k] = sc.tl1[k]
			ln.cached = opt.Sensitivity && !gear
			res.Steps++
			dm.Inc(diag.TransientSteps)
			if ln.advance(adaptive) {
				ln.since++
				if ln.since >= opt.Record || (gear && ln.k == 1) {
					record(k)
				}
			}
			if ln.since > 0 && ln.done(sc.tl[k], adaptive) {
				record(k)
			}
		}
		prune()
	}
	res.X = append([]float64(nil), sc.x...)
	return res, nil
}

// underflow is the failure of a lane whose corrector failed with cause at
// time t and whose step is too short to halve: a Newton failure.
func underflow(t float64, cause error) error {
	if !errors.Is(cause, solver.ErrNoConvergence) {
		cause = fmt.Errorf("%w: %w", cause, solver.ErrNoConvergence)
	}
	return fmt.Errorf("transient: corrector failed at t=%.6g: %w: %w", t, cause, ErrStepUnderflow)
}

// maxRecordFloats bounds the recording storage allocRecords sizes up
// front per lane (128 KiB): enough for a shooting period of the ring at
// 1,024 steps, while a long run's recording grows with it and what an
// earlier run recorded can be collected meanwhile.
const maxRecordFloats = 1 << 14

// allocRecords sizes res's recordings: a fixed-step lane records at most
// its grid's points over Record plus three, so its time axis, node
// waveform and states get that capacity up front, in one allocation of at
// most maxRecordFloats, and recording does not reallocate; longer and
// adaptive lanes' recordings grow as they record. The lanes' arenas carve
// the recorded states. Each lane's storage is its own, so a caller that
// keeps one lane's trajectory keeps no other lane's.
func (sc *BatchScratch) allocRecords(res *BatchResult, opt *BatchOptions) {
	if !opt.RecordWave && !opt.RecordStates {
		return
	}
	K, n := sc.K, sc.N
	res.T = make([][]float64, K)
	wave, width := 0, 1 // floats per recorded point
	if opt.RecordWave {
		res.NodeV = make([][]float64, K)
		wave = 1
	}
	if opt.RecordStates {
		res.States = make([][]linalg.Vec, K)
		width += n
	}
	width += wave
	for _, k := range sc.live {
		pts := arenaChunk
		if !opt.Adaptive {
			pts = min(sc.lanes[k].g.n/opt.Record+3, max(arenaChunk, maxRecordFloats/width))
		}
		buf := make([]float64, pts*width)
		res.T[k] = buf[:0:pts]
		if opt.RecordWave {
			res.NodeV[k] = buf[pts : pts : 2*pts]
		}
		if opt.RecordStates {
			res.States[k] = make([]linalg.Vec, 0, pts)
			sc.arenas[k] = vecArena{n: n, buf: buf[(1+wave)*pts:]}
		}
	}
}

// predictLane writes the predictor of lane k's step into its x1 block: a
// θ step's extrapolant through the lane's last accepted points (predict),
// and for Gear2 the lane's x for a BE step and the line through x and prev
// for a BDF2 step.
func (sc *BatchScratch) predictLane(k int, gear bool) {
	n, ln := sc.N, &sc.lanes[k]
	x1, x, prev := sc.x1[k*n:(k+1)*n], sc.x[k*n:(k+1)*n], sc.prev[k*n:(k+1)*n]
	switch {
	case ln.bdf:
		for i, v := range x {
			x1[i] = 2*v - prev[i]
		}
	case gear:
		copy(x1, x)
	default:
		predict(x1, x, prev, sc.prev2[k*n:(k+1)*n], ln.hf, ln.h1, ln.h2)
	}
}

// evalPoints evaluates f, and J in sensitivity runs, at the points of the
// lanes whose step needs f0 and has no evaluation there: every step but a
// BDF2 one. The evaluation is kept for the lane's retries.
func (sc *BatchScratch) evalPoints(sens bool) {
	n, nnz := sc.N, sc.nnz
	sc.needEval = sc.needEval[:0]
	for _, k := range sc.live {
		if ln := &sc.lanes[k]; !ln.bdf && !ln.cached {
			sc.needEval = append(sc.needEval, k)
			ln.cached = true
		}
	}
	if len(sc.needEval) == 0 {
		return
	}
	sc.bw.SetActive(sc.needEval)
	sc.bw.EvalBatchAt(sc.x, sc.tl, sens)
	for _, k := range sc.needEval {
		copy(sc.f0[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
		if sens {
			copy(sc.jcache[k*nnz:(k+1)*nnz], sc.bw.JV[k*nnz:(k+1)*nnz])
		}
	}
}

// newton runs the masked Newton loop of the live lanes' steps under the
// Newton policy: the lanes that refactor are evaluated with J in one
// batched call, those taking a chord iteration with f only in another;
// each lane solves and updates independently and drops out as it converges
// or fails, its failure left in its err. It returns the iterations taken,
// summed over the lanes.
func (sc *BatchScratch) newton(th, vtol float64, maxNewton int, dm *diag.Metrics) int {
	sc.iterLanes = append(sc.iterLanes[:0], sc.live...)
	iters := 0
	for iter := 0; iter < maxNewton && len(sc.iterLanes) > 0; iter++ {
		sc.factorLanes, sc.chordLanes = sc.factorLanes[:0], sc.chordLanes[:0]
		for _, k := range sc.iterLanes {
			if sc.lanes[k].pol.refactor() {
				sc.factorLanes = append(sc.factorLanes, k)
			} else {
				sc.chordLanes = append(sc.chordLanes, k)
			}
		}
		if len(sc.factorLanes) > 0 {
			sc.bw.SetActive(sc.factorLanes)
			sc.bw.EvalBatchAt(sc.x1, sc.tl1, true)
		}
		if len(sc.chordLanes) > 0 {
			sc.bw.SetActive(sc.chordLanes)
			sc.bw.EvalBatchAt(sc.x1, sc.tl1, false)
		}
		w := 0
		for _, k := range sc.iterLanes {
			done, err := sc.correctLane(k, th, vtol, dm)
			iters++
			switch {
			case err != nil:
				sc.lanes[k].err = err
			case !done:
				sc.iterLanes[w] = k
				w++
			}
		}
		sc.iterLanes = sc.iterLanes[:w]
	}
	for _, k := range sc.iterLanes {
		sc.lanes[k].err = errNoConverge
	}
	dm.Add(diag.NewtonIterations, int64(iters))
	return iters
}

// correctLane solves one lane's Newton correction from the batch
// workspace's current (x1, tl1) evaluation under the lane's Newton policy —
// assembling and factoring the iteration matrix when the policy refactors,
// solving with the lane's current factorization otherwise — and updates the
// lane's x1 block in place. The step starts from the lane's x; it is a BDF2
// step over x and prev, or a θ step. Returns done=true when the
// convergence test passes.
func (sc *BatchScratch) correctLane(k int, th, vtol float64, dm *diag.Metrics) (bool, error) {
	n := sc.N
	base := k * n
	ln := &sc.lanes[k]
	x1, x0 := linalg.Vec(sc.x1[base:base+n]), sc.x[base:base+n]
	cor := &sc.cors[k]
	cor.setGear(ln.bdf)
	w := th
	if ln.bdf {
		cor.gearResidual(sc.resid, x1, x0, sc.prev[base:base+n], sc.bw.F[base:base+n], ln.hf)
		w = 1
	} else {
		cor.thetaResidual(sc.resid, x1, x0, sc.bw.F[base:base+n], sc.f0[base:base+n], th, ln.hf)
	}
	fresh := ln.pol.refactor()
	a := sc.mats[k]
	if fresh {
		ln.carry = 0
		a.combine(cor.scaledC(ln.hf), sc.bw.JV[k*sc.nnz:(k+1)*sc.nnz], w)
		if err := a.factor(dm); err != nil {
			return false, fmt.Errorf("transient: singular iteration matrix: %w", err)
		}
	}
	dx := a.solve(sc.dxv, sc.resid)
	dm.Inc(diag.LUSolves)
	return ln.pol.apply(x1, dx, vtol, fresh)
}

// rejectLTE runs the adaptive controller on lane k's solved step. Its
// local-error estimate is the largest difference between the corrector's
// solution and the line through the lane's last two accepted points,
// scaled by 1/3 (C_trap/(C_AB2−C_trap)-style) once there are two. A step
// whose estimate exceeds tol is rejected and the next attempt takes half
// of it, down to MinStep; one comfortably below tol lets the next step grow
// by half, up to MaxStep.
func (sc *BatchScratch) rejectLTE(k int, tol float64) bool {
	n := sc.N
	ln := &sc.lanes[k]
	x, prev, x1 := sc.x[k*n:(k+1)*n], sc.prev[k*n:(k+1)*n], sc.x1[k*n:(k+1)*n]
	lte, r := 0.0, 0.0
	if ln.h1 > 0 {
		r = ln.hf / ln.h1
	}
	for i, v := range x {
		lin := v
		if ln.h1 > 0 {
			lin = v + r*(v-prev[i])
		}
		if d := math.Abs(x1[i] - lin); d > lte {
			lte = d
		}
	}
	if ln.h1 > 0 {
		lte /= 3
	}
	if lte > tol && ln.hf > ln.minStep {
		ln.h = math.Max(ln.hf/2, ln.minStep)
		return true
	}
	if lte < tol/8 {
		ln.h = math.Min(ln.hf*1.5, ln.maxStep)
	}
	return false
}

// propagate carries lane k's monodromy sens through its accepted step,
// from the workspace's evaluation at the accepted point, and keeps what
// the next step may start from: a θ step's factored sensitivity system
// (its iteration matrix at the accepted point) and its evaluation there as
// the next f0 and J0, a BDF2 step's factored 3C/(2h) + J1. A Gear2 lane's
// BE step keeps neither: a BDF2 step follows it.
func (sc *BatchScratch) propagate(k int, th float64, gear bool, sens *linalg.Mat, dm *diag.Metrics) error {
	n, nnz := sc.N, sc.nnz
	ln := &sc.lanes[k]
	switch {
	case ln.bdf:
		ln.carry = ln.hf
		return sc.gearSensLane(k, ln.hf, sens, ln.sPrev, dm)
	case gear:
		ln.sPrev.CopyFrom(sens)
		return sc.sensLane(k, th, ln.hf, sens, dm)
	}
	ln.carry = ln.hf
	err := sc.sensLane(k, th, ln.hf, sens, dm)
	copy(sc.jcache[k*nnz:(k+1)*nnz], sc.bw.JV[k*nnz:(k+1)*nnz])
	copy(sc.f0[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
	return err
}

// sensLane propagates lane k's monodromy through the accepted θ step:
//
//	S ← (C/h + θ·J1)⁻¹ · (C/h − (1−θ)·J0) · S
//
// with J1 read from the workspace's accepted-point evaluation and J0 from
// the cache (the evaluation at the step's start). The factored left-hand
// matrix stays in the lane's matrix for the next step.
func (sc *BatchScratch) sensLane(k int, th, h float64, sens *linalg.Mat, dm *diag.Metrics) error {
	jb := k * sc.nnz
	ch := sc.cors[k].scaledC(h)
	lhs := sc.mats[k]
	lhs.combine(ch, sc.bw.JV[jb:jb+sc.nnz], th)
	sc.rhs.combine(ch, sc.jcache[jb:jb+sc.nnz], -(1 - th))
	return propagateTheta(dm, lhs, sc.rhs, sens, sc.tmp)
}

// gearSensLane propagates lane k's monodromy through the accepted BDF2
// step:
//
//	S_{n+1} = (3C/(2h) + J1)⁻¹ · C·(4·S_n − S_{n−1})/(2h)
//
// with S_n in sens and S_{n−1} in prev, which become S_{n+1} and S_n. C·(…)
// is the product over C's nonzeros, which adds the terms of the dense row
// product in its order, less C's exact zeros. The factored 3C/(2h) + J1
// stays in the lane's matrix for the next step.
func (sc *BatchScratch) gearSensLane(k int, h float64, sens, prev *linalg.Mat, dm *diag.Metrics) error {
	cor, a := &sc.cors[k], sc.mats[k]
	a.combine(cor.scaledC(h), sc.bw.JV[k*sc.nnz:(k+1)*sc.nnz], 1)
	if err := a.factor(dm); err != nil {
		return fmt.Errorf("singular sensitivity matrix: %w", err)
	}
	for i := range sc.tmp.Data {
		sc.tmp.Data[i] = (4*sens.Data[i] - prev.Data[i]) / (2 * h)
	}
	prev.CopyFrom(sens)
	cor.cs.MulMatInto(sc.tmp2, sc.tmp)
	a.solveMat(sens, sc.tmp2)
	dm.Add(diag.LUSolves, int64(sc.N))
	return nil
}
