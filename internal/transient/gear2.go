package transient

import (
	"context"
	"fmt"

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
	n := sc.sys.N
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
	defer sc.pin.report(dm)
	st := sc.stepper(beOpt, false, dm)
	grid := newStepGrid(t0, t1, h)
	var g *stepper
	if grid.n > 1 {
		g = sc.stepper(opt, true, dm)
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
			x1, iters, err = st.theta(x, x, t, tNext, hh)
			res.NewtonIters += iters
			if err != nil {
				if k == 0 {
					return res, fmt.Errorf("transient: Gear2 bootstrap: %w", err)
				}
				return res, fmt.Errorf("transient: Gear2 tail step: %w", err)
			}
			if opt.Sensitivity {
				sensPrev.CopyFrom(sens)
				if err := st.thetaSens(x, x1, t, tNext, hh, sens); err != nil {
					return res, err
				}
			}
		} else {
			x1, iters, err = g.gear(xPrev, x, t, tNext, hh)
			res.NewtonIters += iters
			if err != nil {
				return res, fmt.Errorf("transient: Gear2 corrector failed at t=%.6g: %w", t, err)
			}
			if opt.Sensitivity {
				if err := g.gearSens(x1, tNext, hh, sensNext, sens, sensPrev); err != nil {
					return res, err
				}
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
