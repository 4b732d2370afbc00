package circuit_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

// nonlinearSystem builds a small circuit with state- and time-dependent
// residuals: a sine current drive into an RC node pair bridged by a VCCS.
func nonlinearSystem(t *testing.T) *circuit.System {
	t.Helper()
	c := circuit.New()
	vdd := c.AddDCRail("vdd", 3.0)
	n1 := c.Node("n1")
	n2 := c.Node("n2")
	c.Add(
		&device.Resistor{Name: "r1", A: vdd, B: n1, R: 1e3},
		&device.Capacitor{Name: "c1", A: n1, B: circuit.Ground, C: 1e-9},
		&device.SineCurrent{Name: "i1", From: circuit.Ground, To: n1, Amp: 1e-3, Freq: 1e4},
		&device.VCCS{Name: "g1", CtrlP: n1, CtrlN: circuit.Ground, OutP: n2, OutN: circuit.Ground, Gm: 2e-3},
		&device.Resistor{Name: "r2", A: n2, B: circuit.Ground, R: 2e3},
		&device.Capacitor{Name: "c2", A: n2, B: circuit.Ground, C: 1e-9},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWorkspaceMatchesSystemEval(t *testing.T) {
	sys := nonlinearSystem(t)
	ws := sys.NewWorkspace()
	n := sys.N
	x := linalg.Vec{0.7, -0.3}
	const tt = 3.7e-5

	fSys := sys.EvalF(x, tt, nil)
	fWs := ws.EvalF(x, tt, nil)
	for i := 0; i < n; i++ {
		if fSys[i] != fWs[i] {
			t.Fatalf("EvalF mismatch at %d: %g vs %g", i, fSys[i], fWs[i])
		}
	}

	f1, j1 := linalg.NewVec(n), linalg.NewMat(n, n)
	f2, j2 := linalg.NewVec(n), linalg.NewMat(n, n)
	sys.EvalFJ(x, tt, f1, j1)
	ws.EvalFJ(x, tt, f2, j2)
	for i := range j1.Data {
		if j1.Data[i] != j2.Data[i] {
			t.Fatalf("EvalFJ Jacobian mismatch at flat index %d", i)
		}
	}

	xdSys := sys.XDot(x, tt)
	xdWs := ws.XDotInto(linalg.NewVec(n), x, tt)
	for i := 0; i < n; i++ {
		if xdSys[i] != xdWs[i] {
			t.Fatalf("XDot mismatch at %d", i)
		}
	}
}

func TestWorkspaceReuseIsStateless(t *testing.T) {
	// Back-to-back evaluations through one workspace must not leak state
	// between calls: repeating an evaluation after unrelated ones gives the
	// same bits.
	sys := nonlinearSystem(t)
	ws := sys.NewWorkspace()
	x := linalg.Vec{0.4, 1.2}
	first := ws.EvalF(x, 1e-5, nil)
	ws.EvalFJ(linalg.Vec{-2, 0.1}, 9e-5, linalg.NewVec(sys.N), linalg.NewMat(sys.N, sys.N))
	ws.XDotInto(linalg.NewVec(sys.N), linalg.Vec{5, -5}, 2e-5)
	again := ws.EvalF(x, 1e-5, nil)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("workspace retained state: f[%d] %g vs %g", i, first[i], again[i])
		}
	}
}

func TestConcurrentWorkspacesShareOneSystem(t *testing.T) {
	// The tentpole property: one immutable System, many goroutines, zero
	// shared mutable state. Every goroutine evaluates a distinct trajectory
	// through its own Workspace; run with -race to certify isolation.
	sys := nonlinearSystem(t)
	n := sys.N
	const goroutines = 8
	const evals = 200

	// Serial references, one per goroutine-to-be.
	ref := make([][]linalg.Vec, goroutines)
	refWS := sys.NewWorkspace()
	for g := 0; g < goroutines; g++ {
		ref[g] = make([]linalg.Vec, evals)
		for k := 0; k < evals; k++ {
			x := linalg.Vec{math.Sin(float64(g + k)), math.Cos(float64(g * k))}
			ref[g][k] = refWS.XDotInto(linalg.NewVec(n), x, float64(k)*1e-6)
		}
	}

	got := make([][]linalg.Vec, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := sys.NewWorkspace()
			got[g] = make([]linalg.Vec, evals)
			for k := 0; k < evals; k++ {
				x := linalg.Vec{math.Sin(float64(g + k)), math.Cos(float64(g * k))}
				got[g][k] = ws.XDotInto(linalg.NewVec(n), x, float64(k)*1e-6)
			}
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		for k := 0; k < evals; k++ {
			for i := 0; i < n; i++ {
				if ref[g][k][i] != got[g][k][i] {
					t.Fatalf("goroutine %d eval %d node %d: concurrent %g != serial %g",
						g, k, i, got[g][k][i], ref[g][k][i])
				}
			}
		}
	}
}
