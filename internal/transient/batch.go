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

// This file implements lockstep batched transient integration over a
// circuit.Batch: K parameter corners advance through the same number of
// fixed steps, each with its own per-lane step size h[k] (and therefore its
// own physical time axis), with every circuit evaluation fanned across the
// batch in one EvalBatchAt call. The per-lane linear algebra (corrector
// factorization, sensitivity propagation) runs on the scalar run's matrix
// type with its algorithms and its Newton policy — in sensitivity runs the
// accepted point's evaluation serves the next step as f0 and J0, and its
// factored sensitivity system as the first iteration matrix — so a lane
// takes the scalar run's steps: BE and Trap lanes the θ-method's, Gear2
// lanes runGear2's BE first step and then BDF2. Lanes are independent: a
// lane of a K-lane run computes what a one-lane run of its circuit does,
// bit for bit, which is why a single circuit's shooting solve and PPV
// extraction are one-lane batches.
//
// A θ lane whose corrector fails retakes that grid step on its own as two
// half steps, each halved again while its corrector fails, down to the
// scalar run's floor of H[k]/1e6; below it the lane fails with
// ErrStepUnderflow. The half steps propagate the lane's monodromy, and the
// lane lands back on its own grid time, so every other lane, the step
// count and the recorded grid are untouched; the next step refactors,
// since the lane's factorization is a half step's. Like runGear2, a Gear2
// lane fails a step without retrying. A failed lane is frozen at its last
// accepted state and reported in BatchResult.Err.

// BatchOptions configures a lockstep batched run. The zero value of the
// recording fields records nothing.
type BatchOptions struct {
	Method Method    // BE, Trap, or Gear2 (a BE first step, then BDF2)
	Steps  int       // common fixed step count (required)
	H      []float64 // per-lane step size, length K (required, all positive and finite)
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
	// before x, for the predictor (prev is also BDF2's x_{n−1}).
	x, x1, prev, prev2, f0 []float64
	tl, tl1                []float64
	// Per-lane Newton policy state of the current step.
	pol []newtonPolicy

	// Accepted-point FJ cache (sensitivity runs): jcache/fcache hold the
	// evaluation at the current (x, tl) for lanes with haveCache set, filled
	// by the previous step's accepted-point evaluation.
	jcache, fcache []float64
	haveCache      []bool
	// halved marks the lanes whose current step was retaken in halves: their
	// monodromy is already propagated through it, and the factorization
	// they hold is a half step's, so the next step refactors.
	halved []bool

	// Solve scratch the lanes share: they correct one at a time.
	resid, dxv linalg.Vec
	// The state of a step being retaken in halves (see halve): the current
	// sub-step's start and the two accepted points before it. Lanes retake
	// one at a time.
	sx, sp, spp []float64
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

	// Lane bookkeeping: the live lanes, the lanes still iterating and those
	// of them refactoring or taking a chord iteration next, the lanes whose
	// accepted-point evaluation is not cached, the lanes to retake in halves,
	// the lanes whose monodromy the step's accepted-point evaluation
	// propagates, and one lane alone.
	live, iterLanes, factorLanes, chordLanes, needEval, retry, sensLanes, one []int

	pin pins
}

// NewBatchScratch returns a scratch for batched integration over b.
func NewBatchScratch(b *circuit.Batch) *BatchScratch {
	k, n, nnz := b.K, b.N, b.Pattern().NNZ()
	size := 6*k*n + 2*k + 2*k*nnz + 5*n
	v := make([]float64, size)
	cut := func(size int) []float64 {
		s := v[:size:size]
		v = v[size:]
		return s
	}
	idx := make([]int, 7*k+1)
	lanes := func(size int) []int {
		s := idx[:0:size]
		idx = idx[size:]
		return s
	}
	flags := make([]bool, 2*k)
	sc := &BatchScratch{
		b: b, bw: b.NewWorkspace(),
		K: k, N: n, nnz: nnz,
		x: cut(k * n), x1: cut(k * n), prev: cut(k * n), prev2: cut(k * n), f0: cut(k * n),
		tl: cut(k), tl1: cut(k),
		pol:    make([]newtonPolicy, k),
		jcache: cut(k * nnz), fcache: cut(k * n),
		haveCache: flags[:k], halved: flags[k:],
		resid: cut(n), dxv: cut(n),
		sx: cut(n), sp: cut(n), spp: cut(n),
		live: lanes(k), iterLanes: lanes(k), factorLanes: lanes(k), chordLanes: lanes(k),
		needEval: lanes(k), retry: lanes(k), sensLanes: lanes(k), one: lanes(1)[:1],
		cors: make([]corrector, k),
	}
	for i, s := range b.Systems {
		sc.cors[i] = newCorrector(s, b.CVals(i), cut(nnz), sc.dxv, false)
	}
	sc.pin.add(size)
	return sc
}

// ensureLanes makes the per-lane matrices for backend be.
func (sc *BatchScratch) ensureLanes(be linalg.Backend) {
	if sc.mats == nil || sc.be != be {
		sc.mats, _ = newMatrices(be, sc.N, sc.b.Pattern(), sc.K, 0, &sc.pin)
		sc.be, sc.rhs, sc.tmp, sc.tmp2 = be, nil, nil, nil
	}
}

// RunBatch integrates all lanes of b from the lane-major state x0 through a
// private scratch. Loops that re-run batched transients (batched shooting)
// hold a BatchScratch and call its Run method instead.
func RunBatch(ctx context.Context, b *circuit.Batch, x0 []float64, opt BatchOptions) (*BatchResult, error) {
	return NewBatchScratch(b).Run(ctx, x0, opt)
}

// Run integrates the batch: every lane k advances opt.Steps fixed steps of
// size opt.H[k] from x0's lane block, starting at time opt.T0[k] (or 0).
func (sc *BatchScratch) Run(ctx context.Context, x0 []float64, opt BatchOptions) (*BatchResult, error) {
	K, n, nnz := sc.K, sc.N, sc.nnz
	if opt.Steps <= 0 {
		return nil, errors.New("transient: BatchOptions.Steps must be positive")
	}
	if len(opt.H) != K {
		return nil, fmt.Errorf("transient: BatchOptions.H has %d lanes, batch has %d", len(opt.H), K)
	}
	for k, h := range opt.H {
		if !(h > 0) || math.IsInf(h, 1) {
			return nil, fmt.Errorf("transient: BatchOptions.H[%d] = %g must be positive and finite", k, h)
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
	// Gear2 lanes take a BE first step, then BDF2.
	gear := opt.Method == Gear2
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
	clear(sc.haveCache)
	clear(sc.halved)
	for k := 0; k < K; k++ {
		sc.tl[k] = 0
		if opt.T0 != nil {
			sc.tl[k] = opt.T0[k]
		}
	}
	// sensPrev[k] is a Gear2 lane's S_{n−1}, the monodromy one step back.
	var sensPrev []*linalg.Mat
	if opt.Sensitivity {
		res.Sens = make([]*linalg.Mat, K)
		if gear {
			sensPrev = make([]*linalg.Mat, K)
		}
		for _, k := range sc.live {
			res.Sens[k] = linalg.Eye(n)
			if gear {
				sensPrev[k] = linalg.NewMat(n, n)
			}
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
	prune := func() {
		w := 0
		for _, k := range sc.live {
			if res.Err[k] == nil {
				sc.live[w] = k
				w++
			}
		}
		sc.live = sc.live[:w]
	}

	for s := 0; s < opt.Steps && len(sc.live) > 0; s++ {
		if err := ctx.Err(); err != nil {
			res.X = append([]float64(nil), sc.x...)
			return res, err
		}
		for _, k := range sc.live {
			sc.tl1[k] = sc.tl[k] + opt.H[k]
		}
		// A BDF2 step (every Gear2 step after the first) needs no f0.
		bdf := gear && s > 0

		// f0 = f(x, t) per lane. Sensitivity runs route it through the
		// accepted-point FJ cache, which the first step fills here — the
		// same evaluation then serves as J0 in the sensitivity propagation.
		switch {
		case bdf:
		case opt.Sensitivity:
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
		default:
			sc.bw.SetActive(sc.live)
			sc.bw.EvalBatchAt(sc.x, sc.tl, false)
			for _, k := range sc.live {
				copy(sc.f0[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
			}
		}

		// Predictor: the scalar run's, on the lane's equal steps — for
		// Gear2 the BE first step starts from x and BDF2 from the line
		// through its two predecessors. After a sensitivity step, Newton
		// starts from the lane's carried factorization (see newtonLoop),
		// except on Gear2's first BDF2 step, whose iteration matrix the BE
		// step did not factor, and after a step retaken in halves.
		for _, k := range sc.live {
			x1, x, prev := sc.x1[k*n:(k+1)*n], sc.x[k*n:(k+1)*n], sc.prev[k*n:(k+1)*n]
			switch {
			case bdf:
				for i, v := range x {
					x1[i] = 2*v - prev[i]
				}
			case gear:
				copy(x1, x)
			default:
				h, h1, h2 := opt.H[k], 0.0, 0.0
				if s > 0 {
					h1 = h
				}
				if s > 1 {
					h2 = h
				}
				predict(x1, x, prev, sc.prev2[k*n:(k+1)*n], h, h1, h2)
			}
			sc.pol[k] = newtonPolicy{chord: opt.Sensitivity && s > 0 && !(gear && s == 1) && !sc.halved[k]}
			sc.halved[k] = false
		}

		// Masked Newton under the shared policy (see newtonLoop): the lanes
		// that refactor are evaluated with J in one batched call, those
		// taking a chord iteration with f only in another; each lane solves
		// and updates independently and drops out of the active set as it
		// converges. θ lanes that fail are retaken in halves below.
		sc.iterLanes = append(sc.iterLanes[:0], sc.live...)
		sc.retry = sc.retry[:0]
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
				var xm1 []float64
				if bdf {
					xm1 = sc.prev[k*n : (k+1)*n]
				}
				done, err := sc.correctLane(k, sc.x[k*n:(k+1)*n], xm1, th, opt.H[k], vtol, dm)
				res.NewtonIters++
				dm.Inc(diag.NewtonIterations)
				switch {
				case err != nil && gear:
					fail(k, fmt.Errorf("transient: lane %d corrector failed at step %d: %w", k, s, err))
				case err != nil:
					sc.retry = append(sc.retry, k)
				case !done:
					sc.iterLanes[w] = k
					w++
				}
			}
			sc.iterLanes = sc.iterLanes[:w]
		}
		for _, k := range sc.iterLanes {
			if gear {
				fail(k, fmt.Errorf("transient: lane %d corrector failed at step %d: %w", k, s, errNoConverge))
			} else {
				sc.retry = append(sc.retry, k)
			}
		}
		for _, k := range sc.retry {
			if err := sc.retake(ctx, k, s, th, vtol, &opt, res, dm); err != nil {
				fail(k, err)
				continue
			}
			sc.halved[k] = true
		}
		prune()
		if len(sc.live) == 0 {
			break
		}

		if opt.Sensitivity {
			// One evaluation at the accepted states serves as this step's J1
			// and, for θ lanes, is cached as the next step's J0/f0 (same
			// point, same time); the factored sensitivity system is the next
			// step's first iteration matrix. Lanes retaken in halves
			// propagated theirs step by step.
			sc.sensLanes = sc.sensLanes[:0]
			for _, k := range sc.live {
				if !sc.halved[k] {
					sc.sensLanes = append(sc.sensLanes, k)
				}
			}
			if len(sc.sensLanes) > 0 {
				sc.bw.SetActive(sc.sensLanes)
				sc.bw.EvalBatchAt(sc.x1, sc.tl1, true)
			}
			for _, k := range sc.sensLanes {
				var err error
				switch {
				case bdf:
					err = sc.gearSensLane(k, opt.H[k], res.Sens[k], sensPrev[k], dm)
				case gear:
					sensPrev[k].CopyFrom(res.Sens[k])
					err = sc.sensLane(k, th, opt.H[k], res.Sens[k], dm)
				default:
					err = sc.sensLane(k, th, opt.H[k], res.Sens[k], dm)
					copy(sc.jcache[k*nnz:(k+1)*nnz], sc.bw.JV[k*nnz:(k+1)*nnz])
					copy(sc.fcache[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
				}
				if err != nil {
					fail(k, fmt.Errorf("transient: lane %d sensitivity failed at step %d: %w", k, s, err))
				}
			}
			prune()
		}

		// Advance the surviving lanes. A step retaken in halves counted its
		// half steps.
		for _, k := range sc.live {
			base := k * n
			copy(sc.prev2[base:base+n], sc.prev[base:base+n])
			copy(sc.prev[base:base+n], sc.x[base:base+n])
			copy(sc.x[base:base+n], sc.x1[base:base+n])
			sc.tl[k] = sc.tl1[k]
			if !sc.halved[k] {
				dm.Inc(diag.TransientSteps)
			}
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
	if opt.Record {
		res.T, res.NodeV = make([][]float64, K), make([][]float64, K)
	}
	if opt.RecordStates {
		res.States = make([][]linalg.Vec, K)
		stateBuf = make([][]float64, K)
	}
	for _, k := range sc.live {
		if opt.Record {
			res.T[k], res.NodeV[k] = make([]float64, 0, pts), make([]float64, 0, pts)
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
// lane's x1 block in place. The step starts from x0; it is a BDF2 step when
// xm1, x0's predecessor, is given, and a θ step otherwise. Returns done=true
// when the convergence test passes.
func (sc *BatchScratch) correctLane(k int, x0, xm1 []float64, th, h, vtol float64, dm *diag.Metrics) (bool, error) {
	n := sc.N
	base := k * n
	x1 := linalg.Vec(sc.x1[base : base+n])
	cor := &sc.cors[k]
	cor.setGear(xm1 != nil)
	w := th
	if xm1 != nil {
		cor.gearResidual(sc.resid, x1, x0, xm1, sc.bw.F[base:base+n], h)
		w = 1
	} else {
		cor.thetaResidual(sc.resid, x1, x0, sc.bw.F[base:base+n], sc.f0[base:base+n], th, h)
	}
	pol := &sc.pol[k]
	fresh := pol.refactor()
	a := sc.mats[k]
	if fresh {
		a.combine(cor.scaledC(h), sc.bw.JV[k*sc.nnz:(k+1)*sc.nnz], w)
		if err := a.factor(dm); err != nil {
			return false, fmt.Errorf("singular iteration matrix: %w", err)
		}
	}
	dx := a.solve(sc.dxv, sc.resid)
	dm.Inc(diag.LUSolves)
	return pol.apply(x1, dx, vtol, fresh)
}

// sensLane propagates lane k's monodromy through the accepted θ step:
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

// gearSensLane propagates lane k's monodromy through the accepted BDF2
// step as the scalar gearSens does:
//
//	S_{n+1} = (3C/(2h) + J1)⁻¹ · C·(4·S_n − S_{n−1})/(2h)
//
// with S_n in sens and S_{n−1} in prev, which become S_{n+1} and S_n. The
// factored 3C/(2h) + J1 stays in the lane's matrix for the next step.
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

// halving is one lane's step being retaken in halves: what its sub-steps
// share, and the steps between the sub-state and the two accepted points
// before it, for the predictor.
type halving struct {
	k         int
	th, vtol  float64
	floor     float64 // the smallest step a halving may take, H[k]/1e6
	maxNewton int
	res       *BatchResult
	dm        *diag.Metrics
	h1, h2    float64
}

// retake integrates θ lane k over its failed step s, from (x, tl) to tl1,
// in halves (see halve), leaving the state at tl1 in the lane's x1 block.
// The sub-steps predict from the lane's recorded history and propagate its
// monodromy; in sensitivity runs the last one leaves the lane's
// accepted-point cache at tl1.
func (sc *BatchScratch) retake(ctx context.Context, k, s int, th, vtol float64, opt *BatchOptions, res *BatchResult, dm *diag.Metrics) error {
	n, h := sc.N, opt.H[k]
	r := halving{k: k, th: th, vtol: vtol, floor: h / 1e6, maxNewton: opt.MaxNewton, res: res, dm: dm}
	if s > 0 {
		r.h1 = h
	}
	if s > 1 {
		r.h2 = h
	}
	copy(sc.sx, sc.x[k*n:(k+1)*n])
	copy(sc.sp, sc.prev[k*n:(k+1)*n])
	copy(sc.spp, sc.prev2[k*n:(k+1)*n])
	t1 := sc.tl1[k]
	err := sc.halve(ctx, &r, sc.tl[k], t1, h, errNoConverge)
	sc.tl1[k] = t1
	return err
}

// halve retakes the step of size h from the sub-state at t0 to t1, whose
// corrector failed with cause, as two steps of h/2, halving each again
// while its corrector fails. Below the floor the scalar run stops at, it
// fails with ErrStepUnderflow.
func (sc *BatchScratch) halve(ctx context.Context, r *halving, t0, t1, h float64, cause error) error {
	if h /= 2; h < r.floor || h == 0 {
		if !errors.Is(cause, solver.ErrNoConvergence) {
			cause = fmt.Errorf("%w: %w", cause, solver.ErrNoConvergence)
		}
		return fmt.Errorf("transient: lane %d corrector failed at t=%.6g: %w: %w", r.k, t0, cause, ErrStepUnderflow)
	}
	r.dm.Inc(diag.TransientRejections)
	for _, end := range [2]float64{t0 + h, t1} {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := sc.subStep(r, end, h); err != nil {
			if err := sc.halve(ctx, r, t0, end, h, err); err != nil {
				return err
			}
		} else if err := sc.acceptSub(r, end, h); err != nil {
			return err
		}
		t0 = end
	}
	return nil
}

// subStep solves one θ step of the lane being retaken, from the sub-state
// to t1 with formula step h, into its x1 block: the lane's f0 holds f at
// the sub-state, the predictor runs over the sub-state's history, and the
// Newton iterations refactor first and evaluate the lane alone.
func (sc *BatchScratch) subStep(r *halving, t1, h float64) error {
	k, n := r.k, sc.N
	predict(sc.x1[k*n:(k+1)*n], sc.sx, sc.sp, sc.spp, h, r.h1, r.h2)
	sc.tl1[k], sc.one[0] = t1, k
	sc.pol[k] = newtonPolicy{}
	for iter := 0; iter < r.maxNewton; iter++ {
		sc.bw.SetActive(sc.one)
		sc.bw.EvalBatchAt(sc.x1, sc.tl1, sc.pol[k].refactor())
		done, err := sc.correctLane(k, sc.sx, nil, r.th, h, r.vtol, r.dm)
		r.res.NewtonIters++
		r.dm.Inc(diag.NewtonIterations)
		if err != nil || done {
			return err
		}
	}
	return errNoConverge
}

// acceptSub accepts the sub-step subStep solved, ending at t1: one
// evaluation there gives the next sub-step's f0 and, in sensitivity runs,
// the J1 that propagates the monodromy through the step and is cached as
// the next J0. The sub-state moves on to the accepted point.
func (sc *BatchScratch) acceptSub(r *halving, t1, h float64) error {
	k, n, nnz := r.k, sc.N, sc.nnz
	sens := r.res.Sens != nil
	sc.bw.SetActive(sc.one)
	sc.bw.EvalBatchAt(sc.x1, sc.tl1, sens)
	if sens {
		if err := sc.sensLane(k, r.th, h, r.res.Sens[k], r.dm); err != nil {
			return fmt.Errorf("transient: lane %d sensitivity failed at t=%.6g: %w", k, t1, err)
		}
		copy(sc.jcache[k*nnz:(k+1)*nnz], sc.bw.JV[k*nnz:(k+1)*nnz])
		copy(sc.fcache[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
	}
	copy(sc.f0[k*n:(k+1)*n], sc.bw.F[k*n:(k+1)*n])
	copy(sc.spp, sc.sp)
	copy(sc.sp, sc.sx)
	copy(sc.sx, sc.x1[k*n:(k+1)*n])
	r.h2, r.h1 = r.h1, h
	r.dm.Inc(diag.TransientSteps)
	return nil
}
