package transient_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// refCorrector is the dense Newton corrector as written before the shared
// corrector: C/h (or 3C/(2h)) recomputed over all n² entries every
// iteration, a dense n² C·Δx residual, and the clamp, update and test
// inline. It evaluates through System.EvalF/EvalFJ, which read every rail
// afresh. It is the bit-identity oracle for the dense θ and Gear2 steppers.
type refCorrector struct {
	sys                   *circuit.System
	f0, f1, resid, dx, x1 linalg.Vec
	jac, sysJ             *linalg.Mat
	lu                    linalg.LU
}

func newRefCorrector(sys *circuit.System) *refCorrector {
	n := sys.N
	return &refCorrector{sys: sys,
		f0: linalg.NewVec(n), f1: linalg.NewVec(n), resid: linalg.NewVec(n),
		dx: linalg.NewVec(n), x1: linalg.NewVec(n),
		jac: linalg.NewMat(n, n), sysJ: linalg.NewMat(n, n)}
}

var errRefNoConverge = errors.New("reference corrector did not converge")

// refUpdate is the inline clamp/update/test every reference step shares.
func refUpdate(x1, dx linalg.Vec, vtol float64) bool {
	if m := dx.NormInf(); m > 2 {
		dx.Scale(2 / m)
	}
	for i := range x1 {
		x1[i] -= dx[i]
	}
	return dx.NormInf() <= vtol*(1+x1.NormInf())
}

func (s *refCorrector) theta(x0, pred linalg.Vec, t, h, th float64, opt transient.Options) (linalg.Vec, int, error) {
	n, c := s.sys.N, s.sys.C
	s.sys.EvalF(x0, t, s.f0)
	x1 := s.x1
	x1.CopyFrom(pred)
	vtol := math.Min(opt.NewtonTol, 1e-6)
	for iter := 0; iter < opt.MaxNewton; iter++ {
		s.sys.EvalFJ(x1, t+h, s.f1, s.sysJ)
		for i := 0; i < n; i++ {
			acc := 0.0
			row := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				acc += row[j] * (x1[j] - x0[j])
			}
			s.resid[i] = acc/h + th*s.f1[i] + (1-th)*s.f0[i]
		}
		for i := 0; i < n*n; i++ {
			s.jac.Data[i] = c.Data[i]/h + th*s.sysJ.Data[i]
		}
		if err := s.lu.FactorizeInto(s.jac); err != nil {
			return nil, iter, err
		}
		if refUpdate(x1, s.lu.SolveInto(s.dx, s.resid), vtol) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

func (s *refCorrector) gear(xm1, x0 linalg.Vec, t, h float64, opt transient.Options) (linalg.Vec, int, error) {
	n, c := s.sys.N, s.sys.C
	x1 := s.x1
	for i := range x1 {
		x1[i] = 2*x0[i] - xm1[i]
	}
	vtol := math.Min(opt.NewtonTol, 1e-6)
	for iter := 0; iter < opt.MaxNewton; iter++ {
		s.sys.EvalFJ(x1, t+h, s.f1, s.sysJ)
		for i := 0; i < n; i++ {
			acc := 0.0
			row := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				acc += row[j] * (3*x1[j] - 4*x0[j] + xm1[j])
			}
			s.resid[i] = acc/(2*h) + s.f1[i]
		}
		for i := 0; i < n*n; i++ {
			s.jac.Data[i] = 3*c.Data[i]/(2*h) + s.sysJ.Data[i]
		}
		if err := s.lu.FactorizeInto(s.jac); err != nil {
			return nil, iter, err
		}
		if refUpdate(x1, s.lu.SolveInto(s.dx, s.resid), vtol) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

// refSparseCorrector is the sparse Newton corrector as written before the
// shared corrector: C·Δx as the CSC product with C laid out on the Jacobian
// pattern, C/h (or 3C/(2h)) + θ·J recomputed entrywise every iteration, and
// the clamp, update and test inline. Its Jacobian values are System.EvalFJ's
// dense entries gathered onto the pattern. It is the bit-identity oracle for
// the sparse θ and Gear2 steppers.
type refSparseCorrector struct {
	sys                        *circuit.System
	cs                         *sparse.CSC
	f0, f1, resid, dx, cdx, x1 linalg.Vec
	jd                         *linalg.Mat
	sysJ, jac                  *sparse.CSC
	lu                         sparse.LU
}

func newRefSparseCorrector(sys *circuit.System) *refSparseCorrector {
	n, pat := sys.N, sys.SparsePattern()
	return &refSparseCorrector{sys: sys, cs: sys.SparseC(),
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

func (s *refSparseCorrector) theta(x0, pred linalg.Vec, t, h, th float64, opt transient.Options) (linalg.Vec, int, error) {
	s.sys.EvalF(x0, t, s.f0)
	x1 := s.x1
	x1.CopyFrom(pred)
	vtol := math.Min(opt.NewtonTol, 1e-6)
	for iter := 0; iter < opt.MaxNewton; iter++ {
		s.sys.EvalFJ(x1, t+h, s.f1, s.jd)
		gatherPattern(s.sysJ, s.jd)
		for i := range s.dx {
			s.dx[i] = x1[i] - x0[i]
		}
		s.cs.MulVecInto(s.cdx, s.dx)
		for i := range s.resid {
			s.resid[i] = s.cdx[i]/h + th*s.f1[i] + (1-th)*s.f0[i]
		}
		for k := range s.jac.Val {
			s.jac.Val[k] = s.cs.Val[k]/h + th*s.sysJ.Val[k]
		}
		if err := s.lu.FactorizeInto(s.jac); err != nil {
			return nil, iter, err
		}
		if refUpdate(x1, s.lu.SolveInto(s.dx, s.resid), vtol) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

func (s *refSparseCorrector) gear(xm1, x0 linalg.Vec, t, h float64, opt transient.Options) (linalg.Vec, int, error) {
	x1 := s.x1
	for i := range x1 {
		x1[i] = 2*x0[i] - xm1[i]
	}
	vtol := math.Min(opt.NewtonTol, 1e-6)
	for iter := 0; iter < opt.MaxNewton; iter++ {
		s.sys.EvalFJ(x1, t+h, s.f1, s.jd)
		gatherPattern(s.sysJ, s.jd)
		for i := range s.dx {
			s.dx[i] = 3*x1[i] - 4*x0[i] + xm1[i]
		}
		s.cs.MulVecInto(s.cdx, s.dx)
		for i := range s.resid {
			s.resid[i] = s.cdx[i]/(2*h) + s.f1[i]
		}
		for k := range s.jac.Val {
			s.jac.Val[k] = 3*s.cs.Val[k]/(2*h) + s.sysJ.Val[k]
		}
		if err := s.lu.FactorizeInto(s.jac); err != nil {
			return nil, iter, err
		}
		if refUpdate(x1, s.lu.SolveInto(s.dx, s.resid), vtol) {
			return x1, iter + 1, nil
		}
	}
	return nil, opt.MaxNewton, errRefNoConverge
}

// refStepper is a reference corrector of either backend.
type refStepper interface {
	theta(x0, pred linalg.Vec, t, h, th float64, opt transient.Options) (linalg.Vec, int, error)
	gear(xm1, x0 linalg.Vec, t, h float64, opt transient.Options) (linalg.Vec, int, error)
}

// newRef returns the reference corrector for backend bk.
func newRef(sys *circuit.System, bk linalg.Backend) refStepper {
	if bk == linalg.BackendSparse {
		return newRefSparseCorrector(sys)
	}
	return newRefCorrector(sys)
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

func requireSameBits(t *testing.T, step int, got, want linalg.Vec) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d: x[%d] = %x, reference %x", step, i, got[i], want[i])
		}
	}
}

// TestThetaStepBitIdenticalToReference drives the θ stepper of each backend
// and that backend's reference corrector through the same 2,000 steps of
// the adder (Trap with the Run loop's extrapolating predictor, and BE):
// every accepted state and iteration count must match bit for bit.
func TestThetaStepBitIdenticalToReference(t *testing.T) {
	sys, x0, h := oracleAdder(t)
	for _, bk := range oracleBackends {
		for _, m := range []transient.Method{transient.Trap, transient.BE} {
			th := 0.5
			if m == transient.BE {
				th = 1
			}
			opt := transient.Options{Method: m, Step: h, NewtonTol: 1e-9, MaxNewton: 40, Backend: bk}
			step := transient.ThetaStepper(sys, opt)
			ref := newRef(sys, bk)
			x, prev, pred := x0.Clone(), x0.Clone(), linalg.NewVec(sys.N)
			for k := 0; k < 2000; k++ {
				tt := float64(k) * h
				for i := range pred {
					pred[i] = x[i] + (x[i] - prev[i])
				}
				want, itWant, errWant := ref.theta(x, pred, tt, h, th, opt)
				got, it, err := step(x, pred, tt, h)
				if err != nil || errWant != nil {
					t.Fatalf("%v %v step %d: err %v, reference %v", bk, m, k, err, errWant)
				}
				if it != itWant {
					t.Fatalf("%v %v step %d: %d iterations, reference %d", bk, m, k, it, itWant)
				}
				requireSameBits(t, k, got, want)
				prev.CopyFrom(x)
				x.CopyFrom(got)
			}
		}
	}
}

// TestGearStepBitIdenticalToReference is the Gear2 twin of the θ oracle
// test, on both backends.
func TestGearStepBitIdenticalToReference(t *testing.T) {
	sys, x0, h := oracleAdder(t)
	for _, bk := range oracleBackends {
		opt := transient.Options{Method: transient.Gear2, Step: h, NewtonTol: 1e-9, MaxNewton: 40, Backend: bk}
		step := transient.GearStepper(sys, opt)
		if bk == linalg.BackendSparse {
			step = transient.SparseGearStepper(sys, opt)
		}
		ref := newRef(sys, bk)
		xm1, x := x0.Clone(), x0.Clone()
		for k := 0; k < 2000; k++ {
			tt := float64(k) * h
			want, itWant, errWant := ref.gear(xm1, x, tt, h, opt)
			got, it, err := step(xm1, x, tt, h)
			if err != nil || errWant != nil {
				t.Fatalf("%v step %d: err %v, reference %v", bk, k, err, errWant)
			}
			if it != itWant {
				t.Fatalf("%v step %d: %d iterations, reference %d", bk, k, it, itWant)
			}
			requireSameBits(t, k, got, want)
			xm1.CopyFrom(x)
			x.CopyFrom(got)
		}
	}
}

// refSensStep propagates a monodromy factor through one accepted θ step
// from (x0, t) to (x1, t+h) the way the batched lanes did before the shared
// corrector: C/h recomputed, J0/J1 added at the Jacobian pattern's
// positions, and on the dense backend the propagator solved column by
// column. It returns the new monodromy.
func refSensStep(sys *circuit.System, pat *sparse.Pattern, bk linalg.Backend, x0, x1 linalg.Vec, t, h, th float64, sens *linalg.Mat) *linalg.Mat {
	n := sys.N
	f, j0, j1 := linalg.NewVec(n), linalg.NewMat(n, n), linalg.NewMat(n, n)
	sys.EvalFJ(x0, t, f, j0)
	sys.EvalFJ(x1, t+h, f, j1)
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
		return lu.SolveMatInto(next, tmp)
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
	return prop.Mul(sens)
}

// TestBatchLaneBitIdenticalToReference runs a four-corner ring batch with
// sensitivities through 200 lockstep steps on each backend and replays
// every lane with the reference corrector and sensitivity assembly: every
// recorded state and each lane's final monodromy match bit for bit.
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
		for _, m := range []transient.Method{transient.BE, transient.Trap} {
			th := 0.5
			if m == transient.BE {
				th = 1
			}
			res, err := transient.RunBatch(context.Background(), b, x0, transient.BatchOptions{
				Method: m, Steps: steps, H: h, Sensitivity: true, RecordStates: true, Backend: bk,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := transient.Options{Method: m, NewtonTol: 1e-9, MaxNewton: 40}
			for k, sys := range systems {
				if res.Err[k] != nil {
					t.Fatalf("%v %v lane %d: %v", bk, m, k, res.Err[k])
				}
				ref := newRef(sys, bk)
				x := linalg.Vec(x0[k*n : (k+1)*n]).Clone()
				prev, pred, sens := x.Clone(), linalg.NewVec(n), linalg.Eye(n)
				tt := 0.0
				for s := 0; s < steps; s++ {
					for i := range pred {
						pred[i] = x[i]
						if s > 0 {
							pred[i] = x[i] + (x[i] - prev[i])
						}
					}
					want, _, err := ref.theta(x, pred, tt, h[k], th, opt)
					if err != nil {
						t.Fatalf("%v %v lane %d step %d: reference %v", bk, m, k, s, err)
					}
					requireSameBits(t, s, res.States[k][s+1], want)
					sens = refSensStep(sys, b.Pattern(), bk, x, want, tt, h[k], th, sens)
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
