package transient_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// refCorrector is the dense Newton corrector as written before the shared
// corrector: C/h (or 3C/(2h)) recomputed over all n² entries at every
// factorization, a dense n² C·Δx residual, and the clamp, update and test
// inline. It evaluates through System.EvalF/EvalFJ, which read every rail
// afresh. With chord set it takes the Newton policy's refactor/chord
// decisions (refPolicy) and is the bit-identity oracle for the dense θ and
// Gear2 steppers; without, it is full Newton — a refactor every iteration —
// the accuracy oracle the policy is held to. A step handed a carried
// factorization (the previous step's sensitivity system, from refSensStep or
// refGearSensStep) starts on it as the policy does.
type refCorrector struct {
	sys                   *circuit.System
	chord                 bool
	f0, f1, resid, dx, x1 linalg.Vec
	jac, sysJ             *linalg.Mat
	lu                    linalg.LU
}

func newRefCorrector(sys *circuit.System, chord bool) *refCorrector {
	n := sys.N
	return &refCorrector{sys: sys, chord: chord,
		f0: linalg.NewVec(n), f1: linalg.NewVec(n), resid: linalg.NewVec(n),
		dx: linalg.NewVec(n), x1: linalg.NewVec(n),
		jac: linalg.NewMat(n, n), sysJ: linalg.NewMat(n, n)}
}

var errRefNoConverge = errors.New("reference corrector did not converge")

// refPolicy is the Newton policy written out for the references: a step's
// first iteration refactors, or solves with a carried factorization; once
// a refactoring iteration's update, or the carried first one's, is at most
// 1e-3·(1+|x|∞), later iterations reuse the factorization until one's
// update exceeds 0.3 times the previous update. With on unset every
// iteration refactors.
type refPolicy struct {
	on, chord, started bool
	last               float64
}

func (p *refPolicy) refactor() bool { return !p.on || !p.chord }

// refSolver is a factorization a reference step solves with.
type refSolver interface {
	SolveInto(dst, b linalg.Vec) linalg.Vec
}

// update is the inline clamp/update/test every reference step shares,
// followed by the policy's decision for the next iteration.
func (p *refPolicy) update(x1, dx linalg.Vec, vtol float64, fresh bool) bool {
	if m := dx.NormInf(); m > 2 {
		dx.Scale(2 / m)
	}
	for i := range x1 {
		x1[i] -= dx[i]
	}
	dm, scale := dx.NormInf(), 1+x1.NormInf()
	if dm <= vtol*scale {
		return true
	}
	if fresh || !p.started {
		p.chord = dm <= 1e-3*scale
	} else if dm > 0.3*p.last {
		p.chord = false
	}
	p.started, p.last = true, dm
	return false
}

func (s *refCorrector) theta(x0, pred linalg.Vec, t, t1, h, th float64, opt transient.Options, carried refSolver) (linalg.Vec, int, error) {
	n, c := s.sys.N, s.sys.C
	s.sys.EvalF(x0, t, s.f0)
	x1 := s.x1
	x1.CopyFrom(pred)
	vtol := math.Min(opt.NewtonTol, 1e-6)
	p := refPolicy{on: s.chord, chord: carried != nil}
	lu := carried
	for iter := 0; iter < opt.MaxNewton; iter++ {
		fresh := p.refactor()
		if fresh {
			s.sys.EvalFJ(x1, t1, s.f1, s.sysJ)
		} else {
			s.sys.EvalF(x1, t1, s.f1)
		}
		for i := 0; i < n; i++ {
			acc := 0.0
			row := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				acc += row[j] * (x1[j] - x0[j])
			}
			s.resid[i] = acc/h + th*s.f1[i] + (1-th)*s.f0[i]
		}
		if fresh {
			for i := 0; i < n*n; i++ {
				s.jac.Data[i] = c.Data[i]/h + th*s.sysJ.Data[i]
			}
			if err := s.lu.FactorizeInto(s.jac); err != nil {
				return nil, iter, err
			}
			lu = &s.lu
		}
		if p.update(x1, lu.SolveInto(s.dx, s.resid), vtol, fresh) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

func (s *refCorrector) gear(xm1, x0 linalg.Vec, t1, h float64, opt transient.Options, carried refSolver) (linalg.Vec, int, error) {
	n, c := s.sys.N, s.sys.C
	x1 := s.x1
	for i := range x1 {
		x1[i] = 2*x0[i] - xm1[i]
	}
	vtol := math.Min(opt.NewtonTol, 1e-6)
	p := refPolicy{on: s.chord, chord: carried != nil}
	lu := carried
	for iter := 0; iter < opt.MaxNewton; iter++ {
		fresh := p.refactor()
		if fresh {
			s.sys.EvalFJ(x1, t1, s.f1, s.sysJ)
		} else {
			s.sys.EvalF(x1, t1, s.f1)
		}
		for i := 0; i < n; i++ {
			acc := 0.0
			row := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				acc += row[j] * (3*x1[j] - 4*x0[j] + xm1[j])
			}
			s.resid[i] = acc/(2*h) + s.f1[i]
		}
		if fresh {
			for i := 0; i < n*n; i++ {
				s.jac.Data[i] = 3*c.Data[i]/(2*h) + s.sysJ.Data[i]
			}
			if err := s.lu.FactorizeInto(s.jac); err != nil {
				return nil, iter, err
			}
			lu = &s.lu
		}
		if p.update(x1, lu.SolveInto(s.dx, s.resid), vtol, fresh) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

// refSparseCorrector is the sparse Newton corrector as written before the
// shared corrector: C·Δx as the CSC product with C laid out on the Jacobian
// pattern, C/h (or 3C/(2h)) + θ·J recomputed entrywise at every
// factorization, and the clamp, update and test inline. Its Jacobian values
// are System.EvalFJ's dense entries gathered onto the pattern. Like
// refCorrector, with chord set it is the bit-identity oracle for the sparse
// θ and Gear2 steppers, and without it is full Newton.
type refSparseCorrector struct {
	sys                        *circuit.System
	chord                      bool
	cs                         *sparse.CSC
	f0, f1, resid, dx, cdx, x1 linalg.Vec
	jd                         *linalg.Mat
	sysJ, jac                  *sparse.CSC
	lu                         sparse.LU
}

func newRefSparseCorrector(sys *circuit.System, chord bool) *refSparseCorrector {
	n, pat := sys.N, sys.SparsePattern()
	return &refSparseCorrector{sys: sys, chord: chord, cs: sys.SparseC(),
		f0: linalg.NewVec(n), f1: linalg.NewVec(n), resid: linalg.NewVec(n),
		dx: linalg.NewVec(n), cdx: linalg.NewVec(n), x1: linalg.NewVec(n),
		jd: linalg.NewMat(n, n), sysJ: sparse.NewCSC(pat), jac: sparse.NewCSC(pat)}
}

// gatherPattern copies the dense m's entries at dst's pattern positions.
func gatherPattern(dst *sparse.CSC, m *linalg.Mat) {
	p := dst.P
	for j := 0; j < p.N; j++ {
		for k := p.ColPtr[j]; k < p.ColPtr[j+1]; k++ {
			dst.Val[k] = m.At(p.Rows[k], j)
		}
	}
}

func (s *refSparseCorrector) theta(x0, pred linalg.Vec, t, t1, h, th float64, opt transient.Options, carried refSolver) (linalg.Vec, int, error) {
	s.sys.EvalF(x0, t, s.f0)
	x1 := s.x1
	x1.CopyFrom(pred)
	vtol := math.Min(opt.NewtonTol, 1e-6)
	p := refPolicy{on: s.chord, chord: carried != nil}
	lu := carried
	for iter := 0; iter < opt.MaxNewton; iter++ {
		fresh := p.refactor()
		if fresh {
			s.sys.EvalFJ(x1, t1, s.f1, s.jd)
			gatherPattern(s.sysJ, s.jd)
		} else {
			s.sys.EvalF(x1, t1, s.f1)
		}
		for i := range s.dx {
			s.dx[i] = x1[i] - x0[i]
		}
		s.cs.MulVecInto(s.cdx, s.dx)
		for i := range s.resid {
			s.resid[i] = s.cdx[i]/h + th*s.f1[i] + (1-th)*s.f0[i]
		}
		if fresh {
			for k := range s.jac.Val {
				s.jac.Val[k] = s.cs.Val[k]/h + th*s.sysJ.Val[k]
			}
			if err := s.lu.FactorizeInto(s.jac); err != nil {
				return nil, iter, err
			}
			lu = &s.lu
		}
		if p.update(x1, lu.SolveInto(s.dx, s.resid), vtol, fresh) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

func (s *refSparseCorrector) gear(xm1, x0 linalg.Vec, t1, h float64, opt transient.Options, carried refSolver) (linalg.Vec, int, error) {
	x1 := s.x1
	for i := range x1 {
		x1[i] = 2*x0[i] - xm1[i]
	}
	vtol := math.Min(opt.NewtonTol, 1e-6)
	p := refPolicy{on: s.chord, chord: carried != nil}
	lu := carried
	for iter := 0; iter < opt.MaxNewton; iter++ {
		fresh := p.refactor()
		if fresh {
			s.sys.EvalFJ(x1, t1, s.f1, s.jd)
			gatherPattern(s.sysJ, s.jd)
		} else {
			s.sys.EvalF(x1, t1, s.f1)
		}
		for i := range s.dx {
			s.dx[i] = 3*x1[i] - 4*x0[i] + xm1[i]
		}
		s.cs.MulVecInto(s.cdx, s.dx)
		for i := range s.resid {
			s.resid[i] = s.cdx[i]/(2*h) + s.f1[i]
		}
		if fresh {
			for k := range s.jac.Val {
				s.jac.Val[k] = 3*s.cs.Val[k]/(2*h) + s.sysJ.Val[k]
			}
			if err := s.lu.FactorizeInto(s.jac); err != nil {
				return nil, iter, err
			}
			lu = &s.lu
		}
		if p.update(x1, lu.SolveInto(s.dx, s.resid), vtol, fresh) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

// refStepper is a reference corrector of either backend. A θ step runs
// from (x0, t) to t1 with formula step h, a BDF2 step to t1; carried is
// nil or the factorization the step starts on.
type refStepper interface {
	theta(x0, pred linalg.Vec, t, t1, h, th float64, opt transient.Options, carried refSolver) (linalg.Vec, int, error)
	gear(xm1, x0 linalg.Vec, t1, h float64, opt transient.Options, carried refSolver) (linalg.Vec, int, error)
}

// newRef returns the reference corrector for backend bk: with chord set the
// policy's oracle, otherwise full Newton.
func newRef(sys *circuit.System, bk linalg.Backend, chord bool) refStepper {
	if bk == linalg.BackendSparse {
		return newRefSparseCorrector(sys, chord)
	}
	return newRefCorrector(sys, chord)
}

// oracleBackends are the backends the oracle tests run on.
var oracleBackends = []linalg.Backend{linalg.BackendDense, linalg.BackendSparse}

// oracleAdder is the transistor-level serial adder the SPICE-level
// benchmarks integrate (14 free nodes, clock and phase-encoded input rails).
func oracleAdder(t *testing.T) (*circuit.System, linalg.Vec, float64) {
	t.Helper()
	const f1 = 9.6e3
	ac, err := ringosc.BuildSerialAdderCircuit(ringosc.AdderCircuitConfig{
		F1: f1, SyncAmp: 120e-6, SyncPhase: 0.1, InputAmp: 0.8, OutAngle: 0.3,
		CouplingR: 20e3, CouplingC: 1e-9, ClockCycles: 4,
		ABits: []bool{true, false}, BBits: []bool{true, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ac.Sys, linalg.Vec(ac.KickStart()), 1 / f1 / 256
}

// oracleStart is where an oracle test's 2,000 adder steps begin.
type oracleStart struct {
	name string
	t0   float64
	x0   linalg.Vec
}

// oracleStarts returns the adder's kick-start at t = 0, where the first
// steps' large updates keep most iterations refactoring, and the state
// 12,000 steps later, where the circuit has settled into the regime the
// benchmarks run in and the step's factorization serves most iterations.
func oracleStarts(t *testing.T, sys *circuit.System, x0 linalg.Vec, h float64) []oracleStart {
	t.Helper()
	const settle = 12000
	res, err := transient.RunCtx(context.Background(), sys, x0, 0, settle*h, transient.Options{Method: transient.Trap, Step: h})
	if err != nil {
		t.Fatal(err)
	}
	return []oracleStart{{"kick", 0, x0}, {"settled", settle * h, res.Final().Clone()}}
}

func requireSameBits(t *testing.T, step int, got, want linalg.Vec) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d: x[%d] = %x, reference %x", step, i, got[i], want[i])
		}
	}
}

// fixedPredict writes the run loop's predictor for fixed-step step k
// (0-based) from x and the two accepted points before it.
func fixedPredict(pred, x, prev, prev2 linalg.Vec, k int, h float64) {
	h1, h2 := 0.0, 0.0
	if k > 0 {
		h1 = h
	}
	if k > 1 {
		h2 = h
	}
	transient.Predict(pred, x, prev, prev2, h, h1, h2)
}

// TestThetaStepBitIdenticalToReference drives the lane corrector's θ step
// (ThetaStepper) on each backend and that backend's reference corrector,
// taking the policy's decisions,
// through the same 2,000 steps of the adder (Trap and BE, from the run
// loop's predictor): every accepted state and iteration count must match
// bit for bit.
func TestThetaStepBitIdenticalToReference(t *testing.T) {
	sys, x0, h := oracleAdder(t)
	for _, start := range oracleStarts(t, sys, x0, h) {
		for _, bk := range oracleBackends {
			for _, m := range []transient.Method{transient.Trap, transient.BE} {
				th := 0.5
				if m == transient.BE {
					th = 1
				}
				opt := transient.Options{Method: m, Step: h, NewtonTol: 1e-9, MaxNewton: 40, Backend: bk}
				step := transient.ThetaStepper(sys, opt)
				ref := newRef(sys, bk, true)
				x, prev, prev2, pred := start.x0.Clone(), start.x0.Clone(), start.x0.Clone(), linalg.NewVec(sys.N)
				for k := 0; k < 2000; k++ {
					tt := start.t0 + float64(k)*h
					fixedPredict(pred, x, prev, prev2, k, h)
					want, itWant, errWant := ref.theta(x, pred, tt, tt+h, h, th, opt, nil)
					got, it, err := step(x, pred, tt, h)
					if err != nil || errWant != nil {
						t.Fatalf("%s %v %v step %d: err %v, reference %v", start.name, bk, m, k, err, errWant)
					}
					if it != itWant {
						t.Fatalf("%s %v %v step %d: %d iterations, reference %d", start.name, bk, m, k, it, itWant)
					}
					requireSameBits(t, k, got, want)
					prev2.CopyFrom(prev)
					prev.CopyFrom(x)
					x.CopyFrom(got)
				}
			}
		}
	}
}

// TestGearStepBitIdenticalToReference is the Gear2 twin of the θ oracle
// test, on both backends.
func TestGearStepBitIdenticalToReference(t *testing.T) {
	sys, x0, h := oracleAdder(t)
	for _, start := range oracleStarts(t, sys, x0, h) {
		for _, bk := range oracleBackends {
			opt := transient.Options{Method: transient.Gear2, Step: h, NewtonTol: 1e-9, MaxNewton: 40, Backend: bk}
			step := transient.GearStepper(sys, opt)
			ref := newRef(sys, bk, true)
			xm1, x := start.x0.Clone(), start.x0.Clone()
			for k := 0; k < 2000; k++ {
				tt := start.t0 + float64(k)*h
				want, itWant, errWant := ref.gear(xm1, x, tt+h, h, opt, nil)
				got, it, err := step(xm1, x, tt, h)
				if err != nil || errWant != nil {
					t.Fatalf("%s %v step %d: err %v, reference %v", start.name, bk, k, err, errWant)
				}
				if it != itWant {
					t.Fatalf("%s %v step %d: %d iterations, reference %d", start.name, bk, k, it, itWant)
				}
				requireSameBits(t, k, got, want)
				xm1.CopyFrom(x)
				x.CopyFrom(got)
			}
		}
	}
}

// TestPolicyMatchesFullNewton holds the Newton policy to full Newton (a
// refactor every iteration, the correctors before the policy): over each
// oracle's 2,000 adder steps from both starts — Trap and BE on both
// backends, Gear2 on both — the policy's accepted state stays within
// 1e-10 V of the state full Newton accepts from the same state and
// predictor.
func TestPolicyMatchesFullNewton(t *testing.T) {
	const tol = 1e-10
	sys, x0, h := oracleAdder(t)
	for _, start := range oracleStarts(t, sys, x0, h) {
		for _, bk := range oracleBackends {
			for _, m := range []transient.Method{transient.Trap, transient.BE, transient.Gear2} {
				opt := transient.Options{Method: m, Step: h, NewtonTol: 1e-9, MaxNewton: 40, Backend: bk}
				full := newRef(sys, bk, false)
				var step transient.StepFunc
				if m == transient.Gear2 {
					step = transient.GearStepper(sys, opt)
				} else {
					step = transient.ThetaStepper(sys, opt)
				}
				x, prev, prev2, pred := start.x0.Clone(), start.x0.Clone(), start.x0.Clone(), linalg.NewVec(sys.N)
				worst, iters, fullIters := 0.0, 0, 0
				for k := 0; k < 2000; k++ {
					tt := start.t0 + float64(k)*h
					var got, want linalg.Vec
					var it, itWant int
					var err, errWant error
					if m == transient.Gear2 {
						want, itWant, errWant = full.gear(prev, x, tt+h, h, opt, nil)
						got, it, err = step(prev, x, tt, h)
					} else {
						th := 0.5
						if m == transient.BE {
							th = 1
						}
						fixedPredict(pred, x, prev, prev2, k, h)
						want, itWant, errWant = full.theta(x, pred, tt, tt+h, h, th, opt, nil)
						got, it, err = step(x, pred, tt, h)
					}
					if err != nil || errWant != nil {
						t.Fatalf("%s %v %v step %d: err %v, full Newton %v", start.name, bk, m, k, err, errWant)
					}
					for i := range want {
						worst = math.Max(worst, math.Abs(got[i]-want[i]))
					}
					iters += it
					fullIters += itWant
					prev2.CopyFrom(prev)
					prev.CopyFrom(x)
					x.CopyFrom(got)
				}
				if worst > tol {
					t.Errorf("%s %v %v: accepted states up to %.3g V from full Newton's, want ≤ %g", start.name, bk, m, worst, tol)
				}
				t.Logf("%s %v %v: within %.3g V of full Newton; %d iterations, full Newton %d", start.name, bk, m, worst, iters, fullIters)
			}
		}
	}
}

// TestAdderNewtonWork pins where the policy saves work on the adder: over
// 2,000 settled Trap steps the step's factorization serves most later
// iterations, so LU factorizations (and Jacobian evaluations) fall well
// below Newton iterations, and both stay below the three per step full
// Newton took from a linear predictor.
func TestAdderNewtonWork(t *testing.T) {
	sys, x0, h := oracleAdder(t)
	start := oracleStarts(t, sys, x0, h)[1]
	for _, bk := range oracleBackends {
		m := diag.New()
		res, err := transient.RunCtx(diag.WithMetrics(context.Background(), m), sys, start.x0, start.t0, start.t0+2000*h,
			transient.Options{Method: transient.Trap, Step: h, Backend: bk})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 2000 || res.Rejected != 0 {
			t.Fatalf("%v: %d steps, %d rejections; want 2000 and 0", bk, res.Steps, res.Rejected)
		}
		steps := float64(res.Steps)
		iters := float64(m.Get(diag.NewtonIterations))
		factors := float64(m.Get(diag.LUFactorizations))
		jacs := float64(m.Get(diag.CircuitJacEvals))
		t.Logf("%v: per step %.3f Newton iterations, %.3f factorizations, %.3f Jacobian evaluations", bk, iters/steps, factors/steps, jacs/steps)
		if iters/steps > 2.7 {
			t.Errorf("%v: %.3f Newton iterations per step, want ≤ 2.7", bk, iters/steps)
		}
		if factors/steps > 1.5 || factors > 0.6*iters {
			t.Errorf("%v: %.3f factorizations per step over %.3f iterations, want ≤ 1.5 and ≤ 0.6 of the iterations", bk, factors/steps, iters/steps)
		}
		if jacs != factors {
			t.Errorf("%v: %.0f Jacobian evaluations for %.0f factorizations", bk, jacs, factors)
		}
	}
}

// refSensStep propagates a monodromy factor through one accepted θ step
// of size h from (x0, t0) to (x1, t1) the way the batched lanes did before
// the shared corrector: C/h recomputed, J0/J1 added at the Jacobian
// pattern's positions, and on the dense backend the propagator solved
// column by column. It returns the new monodromy and the factored
// C/h + θ·J1, the next step's carried iteration matrix.
func refSensStep(sys *circuit.System, pat *sparse.Pattern, bk linalg.Backend, x0, x1 linalg.Vec, t0, t1, h, th float64, sens *linalg.Mat) (*linalg.Mat, refSolver) {
	n := sys.N
	f, j0, j1 := linalg.NewVec(n), linalg.NewMat(n, n), linalg.NewMat(n, n)
	sys.EvalFJ(x0, t0, f, j0)
	sys.EvalFJ(x1, t1, f, j1)
	if bk == linalg.BackendSparse {
		cv := sys.SparseC().Val
		lhs, rhs, jv0, jv1 := sparse.NewCSC(pat), sparse.NewCSC(pat), sparse.NewCSC(pat), sparse.NewCSC(pat)
		gatherPattern(jv0, j0)
		gatherPattern(jv1, j1)
		for i := range lhs.Val {
			lhs.Val[i] = cv[i]/h + th*jv1.Val[i]
			rhs.Val[i] = cv[i]/h - (1-th)*jv0.Val[i]
		}
		var lu sparse.LU
		if err := lu.FactorizeInto(lhs); err != nil {
			panic(err)
		}
		next, tmp := linalg.NewMat(n, n), linalg.NewMat(n, n)
		rhs.MulMatInto(tmp, sens)
		return lu.SolveMatInto(next, tmp), &lu
	}
	c := sys.C
	lhs, rhs := linalg.NewMat(n, n), linalg.NewMat(n, n)
	for i := range lhs.Data {
		lhs.Data[i] = c.Data[i] / h
		rhs.Data[i] = c.Data[i] / h
	}
	for j := 0; j < n; j++ {
		for p := pat.ColPtr[j]; p < pat.ColPtr[j+1]; p++ {
			di := pat.Rows[p]*n + j
			lhs.Data[di] += th * j1.Data[di]
			rhs.Data[di] -= (1 - th) * j0.Data[di]
		}
	}
	var lu linalg.LU
	if err := lu.FactorizeInto(lhs); err != nil {
		panic(err)
	}
	prop := linalg.NewMat(n, n)
	for j := 0; j < n; j++ {
		prop.SetCol(j, lu.Solve(rhs.Col(j)))
	}
	return prop.Mul(sens), &lu
}

// refGearSensStep propagates the monodromy through one accepted BDF2 step
// of size h to (x1, t1): 3C/(2h) + J1 factored (entrywise on the pattern on
// the sparse backend), then C·(4Sₙ − Sₙ₋₁)/(2h), formed as the dense row
// product, solved column by column. It returns Sₙ₊₁ and the factored
// 3C/(2h) + J1, the next step's carried iteration matrix.
func refGearSensStep(sys *circuit.System, bk linalg.Backend, x1 linalg.Vec, t1, h float64, sN, sNm1 *linalg.Mat) (*linalg.Mat, refSolver) {
	n := sys.N
	f, j1, comb := linalg.NewVec(n), linalg.NewMat(n, n), linalg.NewMat(n, n)
	sys.EvalFJ(x1, t1, f, j1)
	for i := range comb.Data {
		comb.Data[i] = (4*sN.Data[i] - sNm1.Data[i]) / (2 * h)
	}
	rhs := sys.C.Mul(comb)
	if bk == linalg.BackendSparse {
		pat, cv := sys.SparsePattern(), sys.SparseC().Val
		lhs, jv := sparse.NewCSC(pat), sparse.NewCSC(pat)
		gatherPattern(jv, j1)
		for i := range lhs.Val {
			lhs.Val[i] = 3*cv[i]/(2*h) + jv.Val[i]
		}
		var lu sparse.LU
		if err := lu.FactorizeInto(lhs); err != nil {
			panic(err)
		}
		next := linalg.NewMat(n, n)
		for j := 0; j < n; j++ {
			next.SetCol(j, lu.SolveInto(linalg.NewVec(n), rhs.Col(j)))
		}
		return next, &lu
	}
	lhs := linalg.NewMat(n, n)
	for i := range lhs.Data {
		lhs.Data[i] = 3*sys.C.Data[i]/(2*h) + j1.Data[i]
	}
	var lu linalg.LU
	if err := lu.FactorizeInto(lhs); err != nil {
		panic(err)
	}
	next := linalg.NewMat(n, n)
	for j := 0; j < n; j++ {
		next.SetCol(j, lu.Solve(rhs.Col(j)))
	}
	return next, &lu
}

// TestScalarSensBitIdenticalToReference runs Scratch.Run with
// sensitivities as fixed-step BE, Trap and Gear2 over 300 adder steps on
// each backend and replays every step: the reference corrector, taking the
// policy's decisions, from the run's predictor and the factorization the
// previous step's reference propagation left (Gear2's BE bootstrap and its
// first BDF2 step start without one), then the reference propagation —
// refSensStep for θ steps and the bootstrap, refGearSensStep for BDF2
// steps. Every recorded state and Result.Sens — the monodromy shooting and
// every PPV build on — must match the replay bit for bit.
func TestScalarSensBitIdenticalToReference(t *testing.T) {
	const steps = 300
	sys, x0, h := oracleAdder(t)
	pat := sys.SparsePattern()
	for _, bk := range oracleBackends {
		for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
			res, err := transient.NewScratch(sys).Run(context.Background(), x0, 0, steps*h,
				transient.Options{Method: m, Step: h, Sensitivity: true, Backend: bk})
			if err != nil {
				t.Fatalf("%v %v: %v", bk, m, err)
			}
			if res.Steps != steps || res.Rejected != 0 || len(res.X) != steps+1 {
				t.Fatalf("%v %v: %d steps, %d rejections, %d points; want %d, 0, %d", bk, m, res.Steps, res.Rejected, len(res.X), steps, steps+1)
			}
			opt := transient.Options{Method: m, NewtonTol: 1e-9, MaxNewton: 40}
			ref := newRef(sys, bk, true)
			sens, prev := linalg.Eye(sys.N), (*linalg.Mat)(nil)
			var carry refSolver
			x, xp, xpp, pred := x0.Clone(), x0.Clone(), x0.Clone(), linalg.NewVec(sys.N)
			for k := 0; k < steps; k++ {
				t0, t1 := res.T[k], res.T[k+1]
				var want linalg.Vec
				if m == transient.Gear2 && k > 0 {
					want, _, err = ref.gear(xp, x, t1, h, opt, carry)
				} else {
					th := 1.0
					if m == transient.Trap {
						th = 0.5
					}
					if m == transient.Gear2 {
						pred.CopyFrom(x)
					} else {
						fixedPredict(pred, x, xp, xpp, k, h)
					}
					want, _, err = ref.theta(x, pred, t0, t1, h, th, opt, carry)
				}
				if err != nil {
					t.Fatalf("%v %v step %d: reference %v", bk, m, k, err)
				}
				requireSameBits(t, k, res.X[k+1], want)
				if m == transient.Gear2 && k > 0 {
					sens, prev, carry = refGear(sys, bk, want, t1, h, sens, prev)
				} else {
					th := 1.0
					if m == transient.Trap {
						th = 0.5
					}
					next, lu := refSensStep(sys, pat, bk, x, want, t0, t1, h, th, sens)
					sens, prev = next, sens
					if m != transient.Gear2 {
						carry = lu
					}
				}
				xpp.CopyFrom(xp)
				xp.CopyFrom(x)
				x.CopyFrom(want)
			}
			if i := firstBitDiff(res.Sens.Data, sens.Data); i >= 0 {
				t.Fatalf("%v %v: monodromy entry %d is %x, reference %x", bk, m, i, res.Sens.Data[i], sens.Data[i])
			}
		}
	}
}

// refGear is refGearSensStep with the monodromy history shifted: it
// returns Sₙ₊₁, Sₙ and the carried factorization.
func refGear(sys *circuit.System, bk linalg.Backend, x1 linalg.Vec, t1, h float64, sN, sNm1 *linalg.Mat) (*linalg.Mat, *linalg.Mat, refSolver) {
	next, lu := refGearSensStep(sys, bk, x1, t1, h, sN, sNm1)
	return next, sN, lu
}

// TestBatchLaneBitIdenticalToReference runs a four-corner ring batch with
// sensitivities through 200 lockstep steps on each backend and replays
// every lane with the shared predictor, the reference corrector taking the
// policy's decisions from the previous step's carried factorization, and
// the reference sensitivity assembly: every recorded state and each lane's
// final monodromy match bit for bit. A Gear2 lane replays the Gear2
// sequence: a BE first step from the lane's state, then BDF2 steps from the
// line through the two states before, the first of them without a carried
// factorization.
func TestBatchLaneBitIdenticalToReference(t *testing.T) {
	const K, steps = 4, 200
	systems := cornerRings(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	n := b.N
	x0 := kickedStart(K, n)
	h := make([]float64, K)
	for k := range h {
		h[k] = (1 + 0.1*float64(k)) * 2e-7 // a few hundred steps per period
	}
	for _, bk := range oracleBackends {
		for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
			th := 0.5
			if m != transient.Trap {
				th = 1
			}
			res, err := transient.RunBatch(context.Background(), b, x0, transient.BatchOptions{
				Options: transient.Options{Method: m, Sensitivity: true, Backend: bk},
				H:       h, T1: laneEnds(h, steps), RecordStates: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := transient.Options{Method: m, NewtonTol: 1e-9, MaxNewton: 40}
			for k, sys := range systems {
				if res.Err[k] != nil {
					t.Fatalf("%v %v lane %d: %v", bk, m, k, res.Err[k])
				}
				ref := newRef(sys, bk, true)
				x := linalg.Vec(x0[k*n : (k+1)*n]).Clone()
				prev, prev2, pred, sens := x.Clone(), x.Clone(), linalg.NewVec(n), linalg.Eye(n)
				var sensPrev *linalg.Mat
				var carry refSolver
				tt := 0.0
				for s := 0; s < steps; s++ {
					var want linalg.Vec
					if m == transient.Gear2 && s > 0 {
						want, _, err = ref.gear(prev, x, tt+h[k], h[k], opt, carry)
					} else {
						if m == transient.Gear2 {
							pred.CopyFrom(x)
						} else {
							fixedPredict(pred, x, prev, prev2, s, h[k])
						}
						want, _, err = ref.theta(x, pred, tt, tt+h[k], h[k], th, opt, carry)
					}
					if err != nil {
						t.Fatalf("%v %v lane %d step %d: reference %v", bk, m, k, s, err)
					}
					requireSameBits(t, s, res.States[k][s+1], want)
					switch {
					case m == transient.Gear2 && s > 0:
						sens, sensPrev, carry = refGear(sys, bk, want, tt+h[k], h[k], sens, sensPrev)
					case m == transient.Gear2:
						// The BE step's factorization is not BDF2's iteration matrix.
						sensPrev = sens
						sens, _ = refSensStep(sys, b.Pattern(), bk, x, want, tt, tt+h[k], h[k], th, sens)
					default:
						sens, carry = refSensStep(sys, b.Pattern(), bk, x, want, tt, tt+h[k], h[k], th, sens)
					}
					prev2.CopyFrom(prev)
					prev.CopyFrom(x)
					x.CopyFrom(want)
					tt += h[k]
				}
				if i := firstBitDiff(res.Sens[k].Data, sens.Data); i >= 0 {
					t.Fatalf("%v %v lane %d: monodromy entry %d is %x, reference %x",
						bk, m, k, i, res.Sens[k].Data[i], sens.Data[i])
				}
			}
		}
	}
}

// firstBitDiff returns the first index where a and b differ bit for bit, or
// −1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
