package solver_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

// fullPattern is the dense n×n pattern: entry (r, c) sits at index c·n + r.
func fullPattern(n int) *sparse.Pattern {
	var rows, cols []int
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			rows, cols = append(rows, r), append(cols, c)
		}
	}
	return sparse.PatternFromEntries(n, rows, cols)
}

// scalar is the one-unknown pattern of the toy problems.
var scalar = fullPattern(1)

// solveToy runs one Newton solve of a toy problem on each
// backend, requires both to agree bit for bit, and returns the result.
func solveToy(t *testing.T, fn solver.Func, pat *sparse.Pattern, x0 linalg.Vec) (linalg.Vec, solver.Stats, error) {
	t.Helper()
	x, st, err := solver.Solve(context.Background(), fn, pat, linalg.BackendDense, x0)
	xs, sts, errs := solver.Solve(context.Background(), fn, pat, linalg.BackendSparse, x0)
	if (err == nil) != (errs == nil) || st != sts {
		t.Fatalf("backends disagree: dense %+v %v, sparse %+v %v", st, err, sts, errs)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("backends disagree at %d: %x vs %x", i, x[i], xs[i])
		}
	}
	return x, st, err
}

func TestNewtonScalarRoot(t *testing.T) {
	// f(x) = x² - 4, root at 2.
	fn := func(x, f linalg.Vec, jv []float64, _, _ float64) {
		f[0] = x[0]*x[0] - 4
		if jv != nil {
			jv[0] = 2 * x[0]
		}
	}
	x, st, err := solveToy(t, fn, scalar, linalg.Vec{5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 {
		t.Fatalf("root = %g, want 2", x[0])
	}
	if !st.Converged {
		t.Fatal("stats must report convergence")
	}
}

func TestNewtonCoupledSystem(t *testing.T) {
	// x² + y² = 25, x - y = 1 → (4, 3). Entry (r, c) is jv[2c + r].
	fn := func(x, f linalg.Vec, jv []float64, _, _ float64) {
		f[0] = x[0]*x[0] + x[1]*x[1] - 25
		f[1] = x[0] - x[1] - 1
		if jv != nil {
			jv[0], jv[2] = 2*x[0], 2*x[1]
			jv[1], jv[3] = 1, -1
		}
	}
	x, _, err := solveToy(t, fn, fullPattern(2), linalg.Vec{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-7 || math.Abs(x[1]-3) > 1e-7 {
		t.Fatalf("solution = %v, want (4, 3)", x)
	}
}

func TestNewtonDampingOnStiffFunction(t *testing.T) {
	// tanh-dominated residual defeats undamped Newton from a far start.
	fn := func(x, f linalg.Vec, jv []float64, _, _ float64) {
		f[0] = stiffResid(x[0])
		if jv != nil {
			jv[0] = stiffSlope(x[0])
		}
	}
	x, _, err := solveToy(t, fn, scalar, linalg.Vec{0.6})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Atanh(0.5) / 5
	if math.Abs(x[0]-want) > 1e-7 {
		t.Fatalf("root = %g, want %g", x[0], want)
	}
}

func TestNewtonMaxStepClamp(t *testing.T) {
	// The first Newton step of f(x) = 1e-6·(x − 50) from 0 is 50 long: the
	// clamp must cut it into MaxStep-long steps that still converge.
	fn := func(x, f linalg.Vec, jv []float64, _, _ float64) {
		f[0] = 1e-6 * (x[0] - 50)
		if jv != nil {
			jv[0] = 1e-6
		}
	}
	x, st, err := solveToy(t, fn, scalar, linalg.Vec{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-50) > 1e-3 {
		t.Fatalf("x = %g, want 50", x[0])
	}
	if want := int(50 / solver.MaxStep); st.Iterations < want {
		t.Fatalf("expected ≥%d clamped iterations, got %d", want, st.Iterations)
	}
}

func TestNewtonReportsNonConvergence(t *testing.T) {
	// No root: f(x) = x² + 1 (minimum 1 at 0) — the solve must fail with
	// ErrNoConvergence after MaxIter iterations, and the stats must carry
	// the residual.
	fn := func(x, f linalg.Vec, jv []float64, _, _ float64) {
		f[0] = x[0]*x[0] + 1
		if jv != nil {
			jv[0] = 2*x[0] + 1e-3 // keep the Jacobian nonsingular
		}
	}
	_, st, err := solveToy(t, fn, scalar, linalg.Vec{3})
	if !errors.Is(err, solver.ErrNoConvergence) {
		t.Fatalf("rootless system: error %v, want ErrNoConvergence", err)
	}
	if st.Iterations != solver.MaxIter || st.Residual < 0.5 {
		t.Fatalf("stats %+v: want %d iterations and a residual near ≥1", st, solver.MaxIter)
	}
}

func TestDCOperatingPointDivider(t *testing.T) {
	c := circuit.New()
	vdd := c.AddDCRail("vdd", 3.0)
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r1", A: vdd, B: n1, R: 1e3},
		&device.Resistor{Name: "r2", A: n1, B: circuit.Ground, R: 2e3},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	x, err := solver.DCOperatingPointCtx(context.Background(), sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2.0) > 1e-6 {
		t.Fatalf("divider voltage = %g, want 2", x[0])
	}
}

func TestDCOperatingPointInverterMidrail(t *testing.T) {
	// CMOS inverter with input tied to output (diode-connected pair)
	// settles near mid-rail — the classic self-biased inverter.
	c := circuit.New()
	vdd := c.AddDCRail("vdd", 3.0)
	out := c.Node("out")
	c.Add(
		&device.MOSFET{Name: "mn", D: out, G: out, S: circuit.Ground, Params: device.ALD1106()},
		&device.MOSFET{Name: "mp", D: out, G: out, S: vdd, Params: device.ALD1107(), PMOS: true},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	x, err := solver.DCOperatingPointCtx(context.Background(), sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] < 1.0 || x[0] > 2.0 {
		t.Fatalf("self-biased inverter output = %g, want near mid-rail", x[0])
	}
	// KCL must balance.
	f := sys.EvalF(x, 0, nil)
	if f.NormInf() > 1e-8 {
		t.Fatalf("residual = %g", f.NormInf())
	}
}

// TestDCOperatingPointRejectsX0Length requires a seed of the wrong length
// to fail with an error, neither panicking (a short seed indexed the plan
// out of range) nor failing as a singular Jacobian or truncating (a long
// one), on the dense backend (the 3-stage ring) and the sparse one (an
// array of 16 rings).
func TestDCOperatingPointRejectsX0Length(t *testing.T) {
	ring, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ringosc.BuildArray(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*circuit.System{ring.Sys, arr.Sys} {
		for _, n := range []int{sys.N - 1, sys.N + 1} {
			x, err := solver.DCOperatingPointCtx(context.Background(), sys, linalg.NewVec(n), 0)
			if err == nil || x != nil {
				t.Errorf("N = %d, len(x0) = %d: got %v, %v; want an error", sys.N, n, x, err)
			}
		}
	}
}

// continuationFn is f(x) = atan(20(x−2))·srcScale + 1e-6·gminScale·x, whose
// Jacobian is nearly flat far from the root at 2: from 50 the solve needs
// its step clamp and line search.
func continuationFn(x, f linalg.Vec, jv []float64, gminScale, srcScale float64) {
	f[0] = math.Atan(20*(x[0]-2))*srcScale + 1e-6*gminScale*x[0]
	if jv != nil {
		jv[0] = 20/(1+400*(x[0]-2)*(x[0]-2))*srcScale + 1e-6*gminScale
	}
}

// TestDCSolveFallsBackToContinuation runs the ladder on continuationFn,
// which plain Newton solves, and on f(x) = 1e-6·x − 5e-4·srcScale +
// 1e-12·gminScale·x from 0, whose root (≈ 500·srcScale) is 250 clamped
// steps away: plain Newton runs out of iterations, gmin stepping fails at
// its third shunt (root ≈ 455, from ≈ 45), and source stepping reaches the
// root in stages of at most 100.
func TestDCSolveFallsBackToContinuation(t *testing.T) {
	x, err := solver.DCSolve(context.Background(), continuationFn, scalar, linalg.BackendDense, linalg.Vec{50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-2 {
		t.Fatalf("continuation landed at %g, want ≈2", x[0])
	}
	ramp := func(x, f linalg.Vec, jv []float64, gminScale, srcScale float64) {
		f[0] = 1e-6*x[0] - 5e-4*srcScale + 1e-12*gminScale*x[0]
		if jv != nil {
			jv[0] = 1e-6 + 1e-12*gminScale
		}
	}
	m := diag.New()
	x, err = solver.DCSolve(diag.WithMetrics(context.Background(), m), ramp, scalar, linalg.BackendDense, linalg.Vec{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-500) > 1e-3 {
		t.Fatalf("source stepping landed at %g, want ≈500", x[0])
	}
	if got := m.Get(diag.NewtonSolves); got != 1+3+8 {
		t.Fatalf("%d Newton solves, want 12 (plain, three gmin stages, eight source stages)", got)
	}
}
