package transient

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
)

// runGear2 integrates with the fixed-step two-step BDF2 formula
//
//	C·(3x_{n+1} − 4x_n + x_{n−1})/(2h) + f(x_{n+1}, t_{n+1}) = 0
//
// bootstrapped with one Backward-Euler step. L-stability makes it the
// method of choice for circuits whose trapezoidal solutions ring on
// switching events (the transmission-gate edges of the clocked FSM).
// Adaptive stepping is rejected by Scratch.Run (ErrGear2Adaptive) before
// this runs.
func (sc *Scratch) runGear2(ctx context.Context, x0 linalg.Vec, t0, t1 float64, opt Options) (*Result, error) {
	defer diag.SpanFrom(ctx, "transient").End()
	dm := diag.FromContext(ctx)
	if opt.Record <= 0 {
		opt.Record = 1
	}
	if opt.NewtonTol == 0 {
		opt.NewtonTol = 1e-9
	}
	if opt.MaxNewton == 0 {
		opt.MaxNewton = 40
	}
	sys := sc.sys
	n := sys.N
	h := opt.Step
	res := &Result{}
	arena := &vecArena{n: n} // owned by res; never reused across runs
	x := sc.x
	x.CopyFrom(x0)
	res.T = append(res.T, t0)
	res.X = append(res.X, arena.clone(x))

	// Sensitivity state is freshly allocated per run (sens ends up in the
	// caller-retained Result); only the propagation *scratch* is pinned.
	var sens, sensPrev, sensNext *linalg.Mat
	if opt.Sensitivity {
		sens = linalg.Eye(n)
		sensPrev = linalg.NewMat(n, n)
		sensNext = linalg.NewMat(n, n)
	}

	// Bootstrap: one BE step (θ-stepper with BE), on the run's backend. The
	// grid's steps are all h long except, when the interval is not a whole
	// number of steps, a shorter last one, which BE takes too: BDF2's
	// coefficients assume equal steps.
	beOpt := opt
	beOpt.Method = BE
	st := sc.thetaStepper(beOpt, dm)
	sc.countPinned(dm)
	grid := newStepGrid(t0, t1, h)
	var g gearOneStepper
	if grid.n > 1 {
		if sc.sys.ResolveBackend(opt.Backend) == linalg.BackendSparse {
			if sc.sg == nil {
				sc.sg = newSparseGearStepper(sys)
				sc.pinned += int64(8 * (4*n + 2*sys.SparsePattern().NNZ()))
			}
			sc.sg.bind(opt, dm)
			g = sc.sg
		} else {
			if sc.g == nil {
				sc.g = newGearStepper(sys)
				sc.pinned += int64(8 * (3*n + 3*n*n + n*n)) // vectors; Jacobian, scaled C and workspace J; LU factors
			}
			sc.g.bind(opt, dm)
			g = sc.g
		}
		sc.countPinned(dm)
	}
	xPrev := sc.prev
	sinceRecord := 0
	for k := 0; k < grid.n; k++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		t, tNext, hh := grid.at(k), grid.at(k+1), grid.size(k)
		var x1 linalg.Vec
		var iters int
		var err error
		if k == 0 || hh != h {
			x1, iters, err = st.step(x, x, t, tNext, hh)
			res.NewtonIters += iters
			if err != nil {
				if k == 0 {
					return res, fmt.Errorf("transient: Gear2 bootstrap: %w", err)
				}
				return res, fmt.Errorf("transient: Gear2 tail step: %w", err)
			}
			if opt.Sensitivity {
				sensPrev.CopyFrom(sens)
				if err := st.stepSensitivity(x, x1, t, tNext, hh, sens); err != nil {
					return res, err
				}
			}
		} else {
			x1, iters, err = g.step(xPrev, x, tNext, hh)
			res.NewtonIters += iters
			if err != nil {
				return res, fmt.Errorf("transient: Gear2 corrector failed at t=%.6g: %w", t, err)
			}
			if opt.Sensitivity {
				if err := g.sensFactors(x1, tNext, hh); err != nil {
					return res, err
				}
				// S_{n+1} = M⁻¹·(4/(2h)·C·S_n − 1/(2h)·C·S_{n−1})
				g.combineSens(sensNext, sens, sensPrev, hh)
				sens, sensPrev, sensNext = sensNext, sens, sensPrev
			}
		}
		xPrev.CopyFrom(x)
		x.CopyFrom(x1)
		res.Steps++
		dm.Inc(diag.TransientSteps)
		sinceRecord++
		if sinceRecord >= opt.Record || k+1 == grid.n || k == 0 {
			res.T = append(res.T, tNext)
			res.X = append(res.X, arena.clone(x))
			sinceRecord = 0
		}
	}
	res.Sens = sens
	return res, nil
}

// gearOneStepper is the BDF2 corrector contract runGear2 integrates through
// — implemented by gearStepper (dense) and sparseGearStepper.
type gearOneStepper interface {
	step(xm1, x0 linalg.Vec, t1, h float64) (linalg.Vec, int, error)
	sensFactors(x1 linalg.Vec, t1, h float64) error
	combineSens(dst, sN, sNm1 *linalg.Mat, h float64)
}

// gearStepper solves one BDF2 step with Newton. Like stepper, all Newton/LU
// and sensitivity-combination buffers are pinned so the steady-state step is
// allocation-free.
type gearStepper struct {
	sys   *circuit.System
	ws    *circuit.Workspace
	opt   Options
	m     *diag.Metrics // nil when diagnostics are off
	cor   corrector     // 3C/(2h) cache and sparse-C residual
	f1    linalg.Vec
	jac   *linalg.Mat // df/dx, then the iteration matrix assembled in place
	resid linalg.Vec
	dx    linalg.Vec
	x1    linalg.Vec // the corrector iterate; step's return value aliases it
	lu    linalg.LU
	// Sensitivity combination scratch (lazy).
	tmp1, tmp2 *linalg.Mat
	slu        linalg.LU
}

func newGearStepper(sys *circuit.System) *gearStepper {
	n := sys.N
	jac, scaled := pairedMat(n)
	dx := linalg.NewVec(n)
	return &gearStepper{
		sys:   sys,
		ws:    sys.NewWorkspace(),
		cor:   newCorrector(sys, sys.C.Data, scaled, dx, true),
		f1:    linalg.NewVec(n),
		jac:   jac,
		resid: linalg.NewVec(n),
		dx:    dx,
		x1:    linalg.NewVec(n),
	}
}

// bind points the stepper at this run's options and metrics.
func (g *gearStepper) bind(opt Options, m *diag.Metrics) {
	g.opt = opt
	g.m = m
	g.ws.SetMetrics(m)
}

// iterationMatrix evaluates f and J at (x1, t1) and assembles
// 3C/(2h) + J into g.jac.
func (g *gearStepper) iterationMatrix(x1 linalg.Vec, t1, h float64) {
	g.ws.EvalFJ(x1, t1, g.f1, g.jac)
	addScaled(g.jac.Data, g.cor.scaledC(h), 1)
}

func (g *gearStepper) step(xm1, x0 linalg.Vec, t1, h float64) (linalg.Vec, int, error) {
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
			if err := denseFactor(g.m, &g.lu, g.jac); err != nil {
				return nil, fmt.Errorf("transient: singular Gear2 matrix: %w", err)
			}
		}
		return g.lu.SolveInto(g.dx, g.resid), nil
	})
}

// sensFactors factorizes the iteration matrix at the accepted point into the
// pinned sensitivity LU.
func (g *gearStepper) sensFactors(x1 linalg.Vec, t1, h float64) error {
	g.iterationMatrix(x1, t1, h)
	if err := denseFactor(g.m, &g.slu, g.jac); err != nil {
		return fmt.Errorf("transient: singular sensitivity matrix: %w", err)
	}
	return nil
}

// combineSens propagates the monodromy through one BDF2 step, writing
// M⁻¹·C·(4·S_n − S_{n−1})/(2h) into dst using the pinned combination
// scratch. Bitwise identical to the historical allocate-per-step version.
func (g *gearStepper) combineSens(dst, sN, sNm1 *linalg.Mat, h float64) {
	n := g.sys.N
	if g.tmp1 == nil {
		g.tmp1 = linalg.NewMat(n, n)
		g.tmp2 = linalg.NewMat(n, n)
	}
	for i := range g.tmp1.Data {
		g.tmp1.Data[i] = (4*sN.Data[i] - sNm1.Data[i]) / (2 * h)
	}
	g.sys.C.MulInto(g.tmp2, g.tmp1)
	g.slu.SolveMatInto(dst, g.tmp2)
	g.m.Add(diag.LUSolves, int64(n))
}
