package solver_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

// cubicFn is a mildly nonlinear diagonal system f_i = x_i + x_i³ − b_i whose
// evaluation allocates nothing — the probe for scratch allocation tests.
// On the diagonal pattern, entry (i, i) is jv[i].
func cubicFn(b linalg.Vec) solver.Func {
	return func(x, f linalg.Vec, jv []float64, _, _ float64) {
		for i := range x {
			f[i] = x[i] + x[i]*x[i]*x[i] - b[i]
			if jv != nil {
				jv[i] = 1 + 3*x[i]*x[i]
			}
		}
	}
}

// diagPattern is the n×n diagonal pattern.
func diagPattern(n int) *sparse.Pattern {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return sparse.PatternFromEntries(n, idx, idx)
}

// TestWarmScratchNewtonZeroAllocs: once a solve's buffers are warm (its
// factorization sized), a Newton solve through them — what each stage of
// the continuation ladder runs — allocates nothing, on either backend.
func TestWarmScratchNewtonZeroAllocs(t *testing.T) {
	const n = 12
	b := linalg.NewVec(n)
	x0 := linalg.NewVec(n)
	for i := range b {
		b[i] = 0.5 + 0.1*float64(i)
		x0[i] = 0.1
	}
	ctx := context.Background()
	for _, be := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
		solve := solver.NewSolve(cubicFn(b), diagPattern(n), be)
		if _, st, err := solve(ctx, x0); err != nil || !st.Converged {
			t.Fatalf("%v warm-up solve: converged=%v err=%v", be, st.Converged, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := solve(ctx, x0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: warm Newton solve allocated %.0f times per run, want 0", be, allocs)
		}
	}
}

// TestScratchSolveMatchesScratchless: a solve through warm buffers — after
// another solve factored in them — returns the bits of a solve through
// fresh ones.
func TestScratchSolveMatchesScratchless(t *testing.T) {
	const n = 6
	b := linalg.NewVec(n)
	x0 := linalg.NewVec(n)
	for i := range b {
		b[i] = 1 + float64(i)
	}
	ctx := context.Background()
	fresh, _, err := solver.Solve(ctx, cubicFn(b), diagPattern(n), linalg.BackendDense, x0)
	if err != nil {
		t.Fatal(err)
	}
	solve := solver.NewSolve(cubicFn(b), diagPattern(n), linalg.BackendDense)
	other := linalg.NewVec(n)
	other.Fill(0.5)
	if _, _, err := solve(ctx, other); err != nil {
		t.Fatal(err)
	}
	warm, _, err := solve(ctx, x0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if math.Float64bits(fresh[i]) != math.Float64bits(warm[i]) {
			t.Fatalf("iterate %d differs: %x vs %x (warm buffers changed arithmetic)", i, fresh[i], warm[i])
		}
	}
}

// TestSolveSparseWithScratchReuse re-runs a sparse Newton solve of a
// circuit through warm buffers and requires bit-identical iterates: the
// symbolic factorization is computed once and the numeric refactor must
// reproduce the cold factorization exactly (the solver-level
// refactor-correctness proof).
func TestSolveSparseWithScratchReuse(t *testing.T) {
	arr, err := ringosc.BuildArray(2)
	if err != nil {
		t.Fatal(err)
	}
	ws := arr.Sys.NewWorkspace()
	fn := func(x, f linalg.Vec, jv []float64, g, s float64) { ws.EvalScaled(x, 0, f, jv, g, s) }
	x0 := linalg.NewVec(arr.Sys.N)
	solve := solver.NewSolve(fn, arr.Sys.SparsePattern(), linalg.BackendSparse)
	x1, st1, err := solve(context.Background(), x0)
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Converged {
		t.Fatal("sparse Newton did not converge")
	}
	got1 := x1.Clone()
	x2, st2, err := solve(context.Background(), x0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Iterations != st1.Iterations {
		t.Fatalf("warm re-solve took %d iterations, cold took %d", st2.Iterations, st1.Iterations)
	}
	for i := range got1 {
		if math.Float64bits(x2[i]) != math.Float64bits(got1[i]) {
			t.Fatalf("warm re-solve not bit-identical at node %d", i)
		}
	}
}

func TestInitialResidualNotFiniteBailsOut(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		fn := func(x, f linalg.Vec, jv []float64, _, _ float64) {
			f[0] = bad
			if jv != nil {
				jv[0] = bad
			}
		}
		_, _, err := solveToy(t, fn, scalar, linalg.Vec{0})
		if err == nil {
			t.Fatalf("bad=%g: expected an error", bad)
		}
		if !errors.Is(err, solver.ErrNoConvergence) {
			t.Errorf("bad=%g: error %v is not ErrNoConvergence", bad, err)
		}
		if errors.Is(err, linalg.ErrSingular) {
			t.Errorf("bad=%g: non-finite residual misdiagnosed as a singular Jacobian: %v", bad, err)
		}
	}
}

// stiffResid is the saturating transfer characteristic of a MOSFET stage
// driven deep into its flat region: from a far start the Jacobian is nearly
// zero, the clamped Newton step overshoots the active region, and the line
// search must backtrack several times per iteration.
func stiffResid(x float64) float64 { return math.Tanh(5*x) - 0.5 }
func stiffSlope(x float64) float64 {
	th := math.Tanh(5 * x)
	return 5 * (1 - th*th)
}

// TestLineSearchTrialsSkipJacobian pins the backtracking contract: trial
// points are evaluated residual-only (nil Jacobian), every Jacobian-carrying
// evaluation happens at a point the iteration keeps, and there is at most
// one Jacobian evaluation per accepted iteration — so a factorization can
// never see the Jacobian of a rejected backtracking candidate.
func TestLineSearchTrialsSkipJacobian(t *testing.T) {
	var jacEvals, trialEvals int
	var lastKept float64 // most recent Jacobian point; must track the iterate
	fn := func(x, f linalg.Vec, jv []float64, _, _ float64) {
		f[0] = stiffResid(x[0])
		if jv != nil {
			jv[0] = stiffSlope(x[0])
			jacEvals++
			lastKept = x[0]
		} else {
			trialEvals++
		}
	}
	x, st, err := solver.Solve(context.Background(), fn, scalar, linalg.BackendDense, linalg.Vec{2})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Atanh(0.5) / 5
	if math.Abs(x[0]-want) > 1e-8 {
		t.Fatalf("root %g, want %g", x[0], want)
	}
	if trialEvals <= st.Iterations {
		t.Fatal("test premise broken: the stiff corner no longer triggers backtracking")
	}
	// Freshness invariant: at most one Jacobian evaluation per accepted
	// iteration (plus the initial one) — never one per line-search trial.
	if jacEvals > st.Iterations+1 {
		t.Errorf("%d Jacobian evaluations for %d iterations: Jacobians evaluated during backtracking",
			jacEvals, st.Iterations)
	}
	// The final Jacobian point must be an accepted iterate near the solution
	// (the refresh skips the last, already-converged step, so allow one
	// quadratic-phase Newton step of slack). A stale-trial Jacobian would
	// leave lastKept at a rejected λ<1 candidate far from the root.
	if jacEvals > 1 && math.Abs(lastKept-x[0]) > 1e-3 {
		t.Errorf("last Jacobian evaluated at %g, final iterate %g", lastKept, x[0])
	}
}

// staleNewton mimics the historical solver: f AND J evaluated at every
// line-search trial, so each iteration pays a full Jacobian assembly per
// backtrack. The regression test below compares its Jacobian-work count
// against the current solver on the same stiff corner.
func staleNewton(fn solver.Func, x0 linalg.Vec) (linalg.Vec, int, error) {
	x := x0.Clone()
	f, fTry, xTry := linalg.NewVec(1), linalg.NewVec(1), linalg.NewVec(1)
	j := make([]float64, 1)
	fn(x, f, j, 1, 1)
	res := f.NormInf()
	for iter := 0; iter < solver.MaxIter; iter++ {
		if res <= solver.AbsTol {
			return x, iter, nil
		}
		if j[0] == 0 {
			return x, iter, linalg.ErrSingular
		}
		dx := -f[0] / j[0]
		dx *= solver.MaxStep / math.Max(solver.MaxStep, math.Abs(dx))
		lambda := 1.0
		for ls := 0; ls < 12; ls++ {
			xTry[0] = x[0] + lambda*dx
			fn(xTry, fTry, j, 1, 1) // the historical staleness: J at every trial
			if r := fTry.NormInf(); r < res || r <= solver.AbsTol {
				break
			}
			lambda /= 2
		}
		x.CopyFrom(xTry)
		f.CopyFrom(fTry)
		res = fTry.NormInf()
	}
	return x, solver.MaxIter, errors.New("stale reference did not converge")
}

func TestLineSearchJacobianWorkRegression(t *testing.T) {
	mkFn := func(jacEvals *int) solver.Func {
		return func(x, f linalg.Vec, jv []float64, _, _ float64) {
			f[0] = stiffResid(x[0])
			if jv != nil {
				*jacEvals++
				jv[0] = stiffSlope(x[0])
			}
		}
	}

	var staleJacs int
	if _, _, err := staleNewton(mkFn(&staleJacs), linalg.Vec{2}); err != nil {
		t.Fatalf("stale reference: %v", err)
	}
	var freshJacs int
	_, st, err := solver.Solve(context.Background(), mkFn(&freshJacs), scalar, linalg.BackendDense, linalg.Vec{2})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("current solver did not converge on the stiff corner")
	}
	// The corner backtracks hard, so the per-trial-Jacobian reference must do
	// strictly more Jacobian assemblies than the residual-only line search.
	if freshJacs >= staleJacs {
		t.Errorf("current solver evaluated %d Jacobians, stale reference %d — no win from nil-Jacobian trials",
			freshJacs, staleJacs)
	}
	if freshJacs > st.Iterations+1 {
		t.Errorf("%d Jacobian evaluations for %d iterations", freshJacs, st.Iterations)
	}
}
