package transient

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// sparseStepper is the θ-method corrector on the sparse backend: the device
// Jacobian is stamped straight into CSC storage on the system's shared
// sparsity pattern, the iteration matrix C/h + θ·J1 is combined entrywise on
// that same pattern (C lives on the union pattern, so the value arrays are
// index-aligned), and the Newton correction runs against a KLU-style
// factorization whose symbolic analysis happens exactly once per topology.
// Like the dense stepper, everything is pinned: the steady-state step
// allocates nothing.
//
// The sparse branch is numerically equivalent but not bit-identical to the
// dense one (residual accumulation and elimination order differ); analyses
// that contract bit-stability pin BackendDense.
type sparseStepper struct {
	sys   *circuit.System
	ws    *circuit.Workspace
	opt   Options
	m     *diag.Metrics // nil when diagnostics are off
	pat   *sparse.Pattern
	cor   corrector // C/h cache on pat and sparse-C residual
	f0    linalg.Vec
	f1    linalg.Vec
	resid linalg.Vec
	jac   *sparse.CSC // stamped df/dx, then C/h + θ·J1 in place
	dx    linalg.Vec
	x1    linalg.Vec // the corrector iterate; step's return value aliases it
	lu    sparse.LU
	// Sensitivity propagation scratch (lazy: sensitivity runs only).
	sj0, sj1    *sparse.CSC
	slhs, srhs  *sparse.CSC
	stmp        *linalg.Mat // dense rhs·S product (the monodromy is dense)
	slu         sparse.LU
	sensCounted bool
}

// pairedCSC returns a value array on pat whose storage is the front half of
// a 2·nnz allocation, and the back half as a pinned nnz scratch slice.
func pairedCSC(pat *sparse.Pattern) (*sparse.CSC, []float64) {
	nnz := pat.NNZ()
	buf := make([]float64, 2*nnz)
	return &sparse.CSC{P: pat, Val: buf[:nnz:nnz]}, buf[nnz:]
}

func newSparseStepper(sys *circuit.System) *sparseStepper {
	n := sys.N
	pat := sys.SparsePattern()
	jac, scaled := pairedCSC(pat)
	dx := linalg.NewVec(n)
	return &sparseStepper{
		sys:   sys,
		ws:    sys.NewWorkspace(),
		pat:   pat,
		cor:   newCorrector(sys, sys.SparseC().Val, scaled, dx, false),
		f0:    linalg.NewVec(n),
		f1:    linalg.NewVec(n),
		resid: linalg.NewVec(n),
		jac:   jac,
		dx:    dx,
		x1:    linalg.NewVec(n),
	}
}

// bind points the stepper at this run's options and metrics.
func (s *sparseStepper) bind(opt Options, m *diag.Metrics) {
	s.opt = opt
	s.m = m
	s.ws.SetMetrics(m)
}

// sparseFactor runs FactorizeInto with the sparse counter discipline: a
// symbolic analysis counts as a factorization (plus its fill-in), a numeric
// replay counts as a refactor.
func sparseFactor(m *diag.Metrics, lu *sparse.LU, a *sparse.CSC) error {
	err := lu.FactorizeInto(a)
	if lu.ReusedSymbolic() {
		m.Inc(diag.SparseRefactors)
	} else {
		m.Inc(diag.SparseFactorizations)
		m.Add(diag.SparseFillIns, int64(lu.FillIn()))
	}
	return err
}

// step solves C(x1−x0)/h + θ f(x1,t1) + (1−θ) f(x0,t0) = 0 for x1 — the
// same corrector as stepper.step with every dense matrix operation replaced
// by its O(nnz) counterpart.
func (s *sparseStepper) step(x0, pred linalg.Vec, t0, t1, h float64) (linalg.Vec, int, error) {
	th := s.opt.Method.theta()
	s.ws.EvalF(x0, t0, s.f0)
	x1 := s.x1
	x1.CopyFrom(pred)
	return newtonLoop(s.m, x1, s.opt.MaxNewton, updateTol(s.opt.NewtonTol), func(refactor bool) (linalg.Vec, error) {
		if refactor {
			s.ws.EvalFJSparse(x1, t1, s.f1, s.jac)
		} else {
			s.ws.EvalF(x1, t1, s.f1)
		}
		s.cor.thetaResidual(s.resid, x1, x0, s.f1, s.f0, th, h)
		if refactor {
			addScaled(s.jac.Val, s.cor.scaledC(h), th) // C/h + θ J1 on the shared pattern
			if err := sparseFactor(s.m, &s.lu, s.jac); err != nil {
				return nil, fmt.Errorf("transient: singular iteration matrix: %w", err)
			}
		}
		return s.lu.SolveInto(s.dx, s.resid), nil
	})
}

// ensureSens lazily allocates the sparse sensitivity scratch: four value
// arrays on the shared pattern plus one dense product matrix (the monodromy
// S is inherently dense, so rhs·S is too).
func (s *sparseStepper) ensureSens() {
	if s.sj0 != nil {
		return
	}
	n := s.sys.N
	s.sj0 = sparse.NewCSC(s.pat)
	s.sj1 = sparse.NewCSC(s.pat)
	s.slhs = sparse.NewCSC(s.pat)
	s.srhs = sparse.NewCSC(s.pat)
	s.stmp = linalg.NewMat(n, n)
}

// sensBytesOnce reports the lazily-allocated sensitivity bytes once.
func (s *sparseStepper) sensBytesOnce() int64 {
	if s.sensCounted || s.sj0 == nil {
		return 0
	}
	s.sensCounted = true
	n, nnz := s.sys.N, s.pat.NNZ()
	return int64(8 * (4*nnz + n*n))
}

// stepSensitivity propagates the monodromy factor for the accepted step,
// updating sens in place:
//
//	S ← (C/h + θ·J1)⁻¹ · (C/h − (1−θ)·J0) · S
//
// Unlike the dense path (which materializes the propagator matrix), the
// sparse path computes rhs·S as a sparse×dense product and back-solves the
// n columns against the sparse factorization — O(n·(nnz + factor)) instead
// of O(n³) per step.
func (s *sparseStepper) stepSensitivity(x0, x1 linalg.Vec, t0, t1, h float64, sens *linalg.Mat) error {
	th := s.opt.Method.theta()
	s.ensureSens()
	s.ws.EvalFJSparse(x0, t0, s.f0, s.sj0)
	s.ws.EvalFJSparse(x1, t1, s.f1, s.sj1)
	ch := s.cor.scaledC(h)
	for k := range s.slhs.Val {
		s.slhs.Val[k] = ch[k] + th*s.sj1.Val[k]
		s.srhs.Val[k] = ch[k] - (1-th)*s.sj0.Val[k]
	}
	if err := sparseFactor(s.m, &s.slu, s.slhs); err != nil {
		return fmt.Errorf("transient: singular sensitivity matrix: %w", err)
	}
	s.m.Add(diag.LUSolves, int64(s.sys.N))
	s.srhs.MulMatInto(s.stmp, sens)
	s.slu.SolveMatInto(sens, s.stmp)
	return nil
}

// sparseGearStepper is the BDF2 corrector on the sparse backend, mirroring
// gearStepper with O(nnz) assembly and a reusable sparse factorization.
type sparseGearStepper struct {
	sys   *circuit.System
	ws    *circuit.Workspace
	opt   Options
	m     *diag.Metrics
	pat   *sparse.Pattern
	cs    *sparse.CSC
	cor   corrector // 3C/(2h) cache on pat and sparse-C residual
	f1    linalg.Vec
	resid linalg.Vec
	jac   *sparse.CSC // stamped df/dx, then 3C/(2h) + J in place
	dx    linalg.Vec
	x1    linalg.Vec
	lu    sparse.LU
	// Sensitivity combination scratch (lazy).
	tmp1, tmp2 *linalg.Mat
	slu        sparse.LU
}

func newSparseGearStepper(sys *circuit.System) *sparseGearStepper {
	n := sys.N
	pat := sys.SparsePattern()
	cs := sys.SparseC()
	jac, scaled := pairedCSC(pat)
	dx := linalg.NewVec(n)
	return &sparseGearStepper{
		sys:   sys,
		ws:    sys.NewWorkspace(),
		pat:   pat,
		cs:    cs,
		cor:   newCorrector(sys, cs.Val, scaled, dx, true),
		f1:    linalg.NewVec(n),
		resid: linalg.NewVec(n),
		jac:   jac,
		dx:    dx,
		x1:    linalg.NewVec(n),
	}
}

// bind points the stepper at this run's options and metrics.
func (g *sparseGearStepper) bind(opt Options, m *diag.Metrics) {
	g.opt = opt
	g.m = m
	g.ws.SetMetrics(m)
}

// iterationMatrix evaluates f and J at (x1, t1) and assembles
// 3C/(2h) + J into g.jac on the shared pattern.
func (g *sparseGearStepper) iterationMatrix(x1 linalg.Vec, t1, h float64) {
	g.ws.EvalFJSparse(x1, t1, g.f1, g.jac)
	addScaled(g.jac.Val, g.cor.scaledC(h), 1)
}

func (g *sparseGearStepper) step(xm1, x0 linalg.Vec, t1, h float64) (linalg.Vec, int, error) {
	// Predictor: linear extrapolation.
	x1 := g.x1
	for i := range x1 {
		x1[i] = 2*x0[i] - xm1[i]
	}
	return newtonLoop(g.m, x1, g.opt.MaxNewton, updateTol(g.opt.NewtonTol), func(refactor bool) (linalg.Vec, error) {
		if refactor {
			g.iterationMatrix(x1, t1, h)
		} else {
			g.ws.EvalF(x1, t1, g.f1)
		}
		g.cor.gearResidual(g.resid, x1, x0, xm1, g.f1, h)
		if refactor {
			if err := sparseFactor(g.m, &g.lu, g.jac); err != nil {
				return nil, fmt.Errorf("transient: singular Gear2 matrix: %w", err)
			}
		}
		return g.lu.SolveInto(g.dx, g.resid), nil
	})
}

// sensFactors factorizes the iteration matrix at the accepted point into the
// pinned sparse sensitivity factorization.
func (g *sparseGearStepper) sensFactors(x1 linalg.Vec, t1, h float64) error {
	g.iterationMatrix(x1, t1, h)
	if err := sparseFactor(g.m, &g.slu, g.jac); err != nil {
		return fmt.Errorf("transient: singular sensitivity matrix: %w", err)
	}
	return nil
}

// combineSens propagates the monodromy through one BDF2 step, writing
// M⁻¹·C·(4·S_n − S_{n−1})/(2h) into dst. The C product runs sparse.
func (g *sparseGearStepper) combineSens(dst, sN, sNm1 *linalg.Mat, h float64) {
	n := g.sys.N
	if g.tmp1 == nil {
		g.tmp1 = linalg.NewMat(n, n)
		g.tmp2 = linalg.NewMat(n, n)
	}
	for i := range g.tmp1.Data {
		g.tmp1.Data[i] = (4*sN.Data[i] - sNm1.Data[i]) / (2 * h)
	}
	g.cs.MulMatInto(g.tmp2, g.tmp1)
	g.slu.SolveMatInto(dst, g.tmp2)
	g.m.Add(diag.LUSolves, int64(n))
}
