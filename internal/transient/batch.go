package transient

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
)

// This file implements lockstep batched transient integration over a
// circuit.Batch: K parameter corners advance through the same number of
// fixed θ-method steps, each with its own per-lane step size h[k] (and
// therefore its own physical time axis), with every circuit evaluation
// fanned across the batch in one EvalBatchAt call. The per-lane linear
// algebra (corrector factorization, sensitivity propagation) runs on the
// scalar run's matrix type with its algorithms and its Newton policy — in
// sensitivity runs the accepted point's evaluation serves the next step as
// f0 and J0, and its factored sensitivity system as the first iteration
// matrix — so a batched lane is numerically equivalent to the scalar path:
// equivalent, not bit-identical, since Newton stops on per-lane schedules
// driven by batch-evaluated iterates.
//
// Lockstep has one behavioral difference from the scalar Run loop: there is
// no step-halving retry on corrector failure (halving one lane's h would
// desynchronize the common grid). A lane whose corrector fails is frozen at
// its last accepted state and reported in BatchResult.Err; callers that need
// robustness fall back to the scalar path for failed lanes.

// BatchOptions configures a lockstep batched run. The zero value of the
// recording fields records nothing.
type BatchOptions struct {
	Method Method    // BE or Trap (Gear2 is fixed-coefficient two-step; unsupported)
	Steps  int       // common fixed step count (required)
	H      []float64 // per-lane step size, length K (required, all > 0)
	// T0 optionally gives per-lane start times (nil → all lanes start at 0).
	T0          []float64
	NewtonTol   float64 // corrector tolerance (default 1e-9, vntol-capped at 1e-6)
	MaxNewton   int     // corrector iteration cap (default 40)
	Sensitivity bool    // propagate per-lane monodromy dx(t)/dx(0)
	// Record enables per-lane waveform recording of free node RecordNode at
	// every step (plus the initial point).
	Record     bool
	RecordNode int
	// RecordStates records the full per-lane state at every step (plus the
	// initial point) — the batched equivalent of the scalar grid pass.
	RecordStates bool
	// Backend selects the per-lane linear-algebra backend, resolved exactly
	// like the scalar path (lanes are congruent, so one choice fits all).
	Backend linalg.Backend
	// Active restricts the run to a lane subset (nil → all lanes). Inactive
	// lanes' state blocks pass through untouched.
	Active []int
}

// ErrBatchGear2 rejects Gear2 batched runs; it wraps ErrUnsupported.
var ErrBatchGear2 = fmt.Errorf("%w: batched integration supports BE and Trap only", ErrUnsupported)

// BatchResult holds the outcome of a batched run. Per-lane failures are
// reported in Err (indexed by lane); the run itself only errors on misuse
// or cancellation.
type BatchResult struct {
	K, N int
	// X is the lane-major final state: converged lanes hold x(t0+Steps·h),
	// failed lanes freeze at their last accepted state, inactive lanes pass
	// the input through.
	X []float64
	// Sens[k] is lane k's monodromy dx(T)/dx(0) (Sensitivity runs; nil for
	// failed or inactive lanes).
	Sens []*linalg.Mat
	// Err[k] is lane k's first failure, nil for lanes that completed.
	Err []error
	// Steps is the common accepted-step count; NewtonIters accumulates
	// corrector iterations across all lanes (cost metric).
	Steps, NewtonIters int
	// T/NodeV are the per-lane recorded time axes and node waveforms
	// (Record); States are per-lane full trajectories (RecordStates).
	T      [][]float64
	NodeV  [][]float64
	States [][]linalg.Vec
}

// LaneX returns lane k's block of the final state.
func (r *BatchResult) LaneX(k int) linalg.Vec {
	return linalg.Vec(r.X[k*r.N : (k+1)*r.N])
}

// BatchScratch pins every reusable buffer a batched integration needs: the
// batch evaluation workspace, the lane-major state/residual arrays, one
// factorization per lane (dense or sparse, symbolic analysis retained
// across steps and runs), and the accepted-point Jacobian cache that lets
// consecutive sensitivity steps share one evaluation. NOT safe for
// concurrent use — one BatchScratch per goroutine.
type BatchScratch struct {
	b         *circuit.Batch
	bw        *circuit.BatchWorkspace
	K, N, nnz int

	// Lane-major per-run state; prev and prev2 are the accepted points
	// before x, for the predictor.
	x, x1, prev, prev2, f0 []float64
	tl, tl1                []float64
	// Per-lane Newton policy state of the current step.
	pol []newtonPolicy

	// Accepted-point FJ cache (sensitivity runs): jcache/fcache hold the
	// evaluation at the current (x, tl) for lanes with haveCache set, filled
	// by the previous step's accepted-point evaluation.
	jcache, fcache []float64
	haveCache      []bool

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
	// an n×n product, shared by the lanes.
	rhs matrix
	tmp *linalg.Mat

	// Lane bookkeeping: the live lanes, the lanes still iterating and those
	// of them refactoring or taking a chord iteration next, and the lanes
	// whose accepted-point evaluation is not cached.
	live, iterLanes, factorLanes, chordLanes, needEval []int

	pin pins
}

// NewBatchScratch returns a scratch for batched integration over b.
func NewBatchScratch(b *circuit.Batch) *BatchScratch {
	k, n, nnz := b.K, b.N, b.Pattern().NNZ()
	v := make([]float64, 6*k*n+2*k+2*k*nnz+2*n)
	cut := func(size int) []float64 {
		s := v[:size:size]
		v = v[size:]
		return s
	}
	sc := &BatchScratch{
		b: b, bw: b.NewWorkspace(),
		K: k, N: n, nnz: nnz,
		x: cut(k * n), x1: cut(k * n), prev: cut(k * n), prev2: cut(k * n), f0: cut(k * n),
		tl: cut(k), tl1: cut(k),
		pol:    make([]newtonPolicy, k),
		jcache: cut(k * nnz), fcache: cut(k * n),
		haveCache: make([]bool, k),
		resid:     cut(n), dxv: cut(n),
		live: make([]int, 0, k), iterLanes: make([]int, 0, k),
		factorLanes: make([]int, 0, k), chordLanes: make([]int, 0, k),
		needEval: make([]int, 0, k),
		cors:     make([]corrector, k),
	}
	for i, s := range b.Systems {
		sc.cors[i] = newCorrector(s, b.CVals(i), cut(nnz), sc.dxv, false)
	}
	sc.pin.add(6*k*n + 2*k + 2*k*nnz + 2*n)
	return sc
}

// ensureLanes makes the per-lane matrices for backend be.
func (sc *BatchScratch) ensureLanes(be linalg.Backend) {
	if sc.mats == nil || sc.be != be {
		sc.mats, _ = newMatrices(be, sc.N, sc.b.Pattern(), sc.K, 0, &sc.pin)
		sc.be, sc.rhs, sc.tmp = be, nil, nil
	}
}

// RunBatch integrates all lanes of b from the lane-major state x0 through a
// private scratch. Loops that re-run batched transients (batched shooting)
// hold a BatchScratch and call its Run method instead.
func RunBatch(ctx context.Context, b *circuit.Batch, x0 []float64, opt BatchOptions) (*BatchResult, error) {
	return NewBatchScratch(b).Run(ctx, x0, opt)
}

// Run integrates the batch: every lane k advances opt.Steps fixed θ-steps of
// size opt.H[k] from x0's lane block, starting at time opt.T0[k] (or 0).
func (sc *BatchScratch) Run(ctx context.Context, x0 []float64, opt BatchOptions) (*BatchResult, error) {
	K, n, nnz := sc.K, sc.N, sc.nnz
	if opt.Method == Gear2 {
		return nil, ErrBatchGear2
	}
	if opt.Steps <= 0 {
		return nil, errors.New("transient: BatchOptions.Steps must be positive")
	}
	if len(opt.H) != K {
		return nil, fmt.Errorf("transient: BatchOptions.H has %d lanes, batch has %d", len(opt.H), K)
	}
	for k, h := range opt.H {
		if h <= 0 {
			return nil, fmt.Errorf("transient: BatchOptions.H[%d] = %g must be positive", k, h)
		}
	}
	if len(x0) != K*n {
		return nil, fmt.Errorf("transient: batched x0 has length %d, want %d", len(x0), K*n)
	}
	if opt.T0 != nil && len(opt.T0) != K {
		return nil, fmt.Errorf("transient: BatchOptions.T0 has %d lanes, batch has %d", len(opt.T0), K)
	}
	if opt.NewtonTol == 0 {
		opt.NewtonTol = 1e-9
	}
	if opt.MaxNewton == 0 {
		opt.MaxNewton = 40
	}
	vtol := updateTol(opt.NewtonTol)
	th := opt.Method.theta()
	sc.ensureLanes(sc.b.Systems[0].ResolveBackend(opt.Backend))
	if opt.Sensitivity && sc.rhs == nil {
		sc.rhs, sc.tmp = sc.mats[0].sibling(), sc.pin.mat(n)
	}

	defer diag.SpanFrom(ctx, "transient.batch").End()
	dm := diag.FromContext(ctx)
	defer sc.pin.report(dm)
	sc.bw.SetMetrics(dm)

	res := &BatchResult{K: K, N: n, Err: make([]error, K)}
	copy(sc.x, x0)
	sc.live = sc.live[:0]
	if opt.Active != nil {
		for _, k := range opt.Active {
			if k < 0 || k >= K {
				return nil, fmt.Errorf("transient: BatchOptions.Active lane %d out of range [0,%d)", k, K)
			}
			sc.live = append(sc.live, k)
		}
	} else {
		for k := 0; k < K; k++ {
			sc.live = append(sc.live, k)
		}
	}
	for k := range sc.haveCache {
		sc.haveCache[k] = false
	}
	for k := 0; k < K; k++ {
		sc.tl[k] = 0
		if opt.T0 != nil {
			sc.tl[k] = opt.T0[k]
		}
	}
	if opt.Sensitivity {
		res.Sens = make([]*linalg.Mat, K)
		for _, k := range sc.live {
			res.Sens[k] = linalg.Eye(n)
		}
	}
	if opt.Record && (opt.RecordNode < 0 || opt.RecordNode >= n) {
		return nil, fmt.Errorf("transient: BatchOptions.RecordNode %d out of range [0,%d)", opt.RecordNode, n)
	}
	stateBuf := sc.allocRecords(res, opt)
	record := func(k int) {
		if res.T != nil {
			res.T[k] = append(res.T[k], sc.tl[k])
		}
		if opt.Record {
			res.NodeV[k] = append(res.NodeV[k], sc.x[k*n+opt.RecordNode])
		}
		if opt.RecordStates {
			st := res.States[k]
			i := len(st) * n
			v := linalg.Vec(stateBuf[k][i : i+n : i+n])
			copy(v, sc.x[k*n:(k+1)*n])
			res.States[k] = append(st, v)
		}
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

	for s := 0; s < opt.Steps && len(sc.live) > 0; s++ {
		if err := ctx.Err(); err != nil {
			res.X = append([]float64(nil), sc.x...)
			return res, err
		}
		for _, k := range sc.live {
			sc.tl1[k] = sc.tl[k] + opt.H[k]
		}

		// f0 = f(x, t) per lane. Sensitivity runs route it through the
		// accepted-point FJ cache, which the first step fills here — the
		// same evaluation then serves as J0 in the sensitivity propagation.
		if opt.Sensitivity {
			sc.needEval = sc.needEval[:0]
			for _, k := range sc.live {
				if !sc.haveCache[k] {
					sc.needEval = append(sc.needEval, k)
				}
			}
			if len(sc.needEval) > 0 {
				sc.bw.SetActive(sc.needEval)
				sc.bw.EvalBatchAt(sc.x, sc.tl, true)
				for _, k := range sc.needEval {
					copy(sc.jcache[k*nnz:(k+1)*nnz], sc.bw.JV[k*nnz:(k+1)*nnz])
					copy(sc.fcache[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
					sc.haveCache[k] = true
				}
			}
			for _, k := range sc.live {
				copy(sc.f0[k*n:(k+1)*n], sc.fcache[k*n:(k+1)*n])
			}
		} else {
			sc.bw.SetActive(sc.live)
			sc.bw.EvalBatchAt(sc.x, sc.tl, false)
			for _, k := range sc.live {
				copy(sc.f0[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
			}
		}

		// Predictor: the scalar run's, on the lane's equal steps. After a
		// sensitivity step, Newton starts from the lane's carried
		// factorization (see newtonLoop).
		for _, k := range sc.live {
			h, h1, h2 := opt.H[k], 0.0, 0.0
			if s > 0 {
				h1 = h
			}
			if s > 1 {
				h2 = h
			}
			lane := k * n
			predict(sc.x1[lane:lane+n], sc.x[lane:lane+n], sc.prev[lane:lane+n], sc.prev2[lane:lane+n], h, h1, h2)
			sc.pol[k] = newtonPolicy{chord: opt.Sensitivity && s > 0}
		}

		// Masked Newton under the shared policy (see newtonLoop): the lanes
		// that refactor are evaluated with J in one batched call, those
		// taking a chord iteration with f only in another; each lane solves
		// and updates independently and drops out of the active set as it
		// converges.
		sc.iterLanes = append(sc.iterLanes[:0], sc.live...)
		for iter := 0; iter < opt.MaxNewton && len(sc.iterLanes) > 0; iter++ {
			sc.factorLanes, sc.chordLanes = sc.factorLanes[:0], sc.chordLanes[:0]
			for _, k := range sc.iterLanes {
				if sc.pol[k].refactor() {
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
				done, err := sc.correctLane(k, th, opt.H[k], vtol, dm)
				res.NewtonIters++
				dm.Inc(diag.NewtonIterations)
				if err != nil {
					fail(k, fmt.Errorf("transient: lane %d corrector failed at step %d: %w", k, s, err))
					continue
				}
				if !done {
					sc.iterLanes[w] = k
					w++
				}
			}
			sc.iterLanes = sc.iterLanes[:w]
		}
		for _, k := range sc.iterLanes {
			if res.Err[k] == nil {
				fail(k, fmt.Errorf("transient: lane %d corrector failed at step %d: %w", k, s, errNoConverge))
			}
		}
		// Prune failed lanes.
		w := 0
		for _, k := range sc.live {
			if res.Err[k] == nil {
				sc.live[w] = k
				w++
			}
		}
		sc.live = sc.live[:w]
		if len(sc.live) == 0 {
			break
		}

		if opt.Sensitivity {
			// One evaluation at the accepted states serves as this step's J1
			// and is cached as the next step's J0/f0 (same point, same time);
			// the factored sensitivity system is the next step's first
			// iteration matrix.
			sc.bw.SetActive(sc.live)
			sc.bw.EvalBatchAt(sc.x1, sc.tl1, true)
			w := 0
			for _, k := range sc.live {
				if err := sc.sensLane(k, th, opt.H[k], res.Sens[k], dm); err != nil {
					fail(k, fmt.Errorf("transient: lane %d sensitivity failed at step %d: %w", k, s, err))
					continue
				}
				copy(sc.jcache[k*nnz:(k+1)*nnz], sc.bw.JV[k*nnz:(k+1)*nnz])
				copy(sc.fcache[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
				sc.live[w] = k
				w++
			}
			sc.live = sc.live[:w]
		}

		// Advance the surviving lanes.
		for _, k := range sc.live {
			base := k * n
			copy(sc.prev2[base:base+n], sc.prev[base:base+n])
			copy(sc.prev[base:base+n], sc.x[base:base+n])
			copy(sc.x[base:base+n], sc.x1[base:base+n])
			sc.tl[k] = sc.tl1[k]
			dm.Inc(diag.TransientSteps)
			record(k)
		}
		res.Steps++
	}
	res.X = append([]float64(nil), sc.x...)
	return res, nil
}

// allocRecords sizes res's recordings for a run of opt.Steps steps: every
// live lane records at most Steps+1 points, so each lane's time axis, node
// waveform and state trajectory get their full capacity up front, and
// recording never reallocates. The returned blocks (RecordStates runs) back
// the lanes' recorded states, Steps+1 n-vectors per lane. Each lane's
// storage is its own, so a caller that keeps one lane's trajectory keeps no
// other lane's.
func (sc *BatchScratch) allocRecords(res *BatchResult, opt BatchOptions) (stateBuf [][]float64) {
	if !opt.Record && !opt.RecordStates {
		return nil
	}
	K, n, pts := sc.K, sc.N, opt.Steps+1
	res.T = make([][]float64, K)
	if opt.Record {
		res.NodeV = make([][]float64, K)
	}
	if opt.RecordStates {
		res.States = make([][]linalg.Vec, K)
		stateBuf = make([][]float64, K)
	}
	for _, k := range sc.live {
		res.T[k] = make([]float64, 0, pts)
		if opt.Record {
			res.NodeV[k] = make([]float64, 0, pts)
		}
		if opt.RecordStates {
			res.States[k] = make([]linalg.Vec, 0, pts)
			stateBuf[k] = make([]float64, pts*n)
		}
	}
	return stateBuf
}

// correctLane solves one lane's Newton correction from the batch
// workspace's current (x1, t+h) evaluation under the lane's Newton policy —
// assembling and factoring the iteration matrix when the policy refactors,
// solving with the lane's current factorization otherwise — and updates the
// lane's x1 block in place. Returns done=true when the convergence test
// passes.
func (sc *BatchScratch) correctLane(k int, th, h, vtol float64, dm *diag.Metrics) (bool, error) {
	n := sc.N
	base := k * n
	x1 := linalg.Vec(sc.x1[base : base+n])
	cor := &sc.cors[k]
	cor.thetaResidual(sc.resid, x1, sc.x[base:base+n], sc.bw.F[base:base+n], sc.f0[base:base+n], th, h)
	pol := &sc.pol[k]
	fresh := pol.refactor()
	a := sc.mats[k]
	if fresh {
		a.combine(cor.scaledC(h), sc.bw.JV[k*sc.nnz:(k+1)*sc.nnz], th)
		if err := a.factor(dm); err != nil {
			return false, fmt.Errorf("singular iteration matrix: %w", err)
		}
	}
	dx := a.solve(sc.dxv, sc.resid)
	dm.Inc(diag.LUSolves)
	return pol.apply(x1, dx, vtol, fresh)
}

// sensLane propagates lane k's monodromy through the accepted step:
//
//	S ← (C/h + θ·J1)⁻¹ · (C/h − (1−θ)·J0) · S
//
// with J1 read from the workspace's accepted-point evaluation and J0 from
// the cache (the previous step's accepted-point evaluation). The factored
// left-hand matrix stays in the lane's matrix for the next step.
func (sc *BatchScratch) sensLane(k int, th, h float64, sens *linalg.Mat, dm *diag.Metrics) error {
	jb := k * sc.nnz
	ch := sc.cors[k].scaledC(h)
	lhs := sc.mats[k]
	lhs.combine(ch, sc.bw.JV[jb:jb+sc.nnz], th)
	sc.rhs.combine(ch, sc.jcache[jb:jb+sc.nnz], -(1 - th))
	return propagateTheta(dm, lhs, sc.rhs, sens, sc.tmp)
}
