package circuit_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

// countingRailSystem reads one counted sinusoidal rail from three devices
// and couples it capacitively into a node, so every evaluation needs both
// V(t) and dV/dt of the rail several times.
func countingRailSystem(t *testing.T, vCalls, dCalls *int) *circuit.System {
	t.Helper()
	c := circuit.New()
	drive := c.AddRailDeriv("drive",
		func(tt float64) float64 { *vCalls++; return 1.5 + math.Sin(2*math.Pi*1e4*tt) },
		func(tt float64) float64 { *dCalls++; return 2 * math.Pi * 1e4 * math.Cos(2*math.Pi*1e4*tt) })
	n1, n2 := c.Node("n1"), c.Node("n2")
	c.Add(
		&device.Resistor{Name: "r1", A: drive, B: n1, R: 1e3},
		&device.TransGate{Name: "tg", A: n1, B: n2, Ctrl: drive, Ron: 1e3, Roff: 1e9, Von: 2, Voff: 1},
		&device.Summer{Name: "s", Inputs: []circuit.NodeID{drive, n1}, Weights: []float64{1, -1},
			Out: n2, Mid: 1.5, Swing: 1, Rout: 100},
		&device.Capacitor{Name: "cc", A: drive, B: n2, C: 1e-9},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWorkspaceRailMemo pins the rail contract's payoff: a Workspace runs a
// rail's V and dV/dt once per distinct time, however many devices read it
// and however many evaluations land on that time; a System evaluation (a
// fresh workspace) runs them once per call, and each lane of a batch keeps
// its own memo — and all produce the same bits.
func TestWorkspaceRailMemo(t *testing.T) {
	var vCalls, dCalls int
	sys := countingRailSystem(t, &vCalls, &dCalls)
	ws := sys.NewWorkspace()
	n := sys.N
	x := linalg.Vec{0.4, 1.1}
	f, j := linalg.NewVec(n), linalg.NewMat(n, n)
	want := func(v, d int) {
		t.Helper()
		if vCalls != v || dCalls != d {
			t.Fatalf("rail ran V %d and dV/dt %d times, want %d and %d", vCalls, dCalls, v, d)
		}
	}

	const t1, t2 = 3e-5, 4e-5
	ws.EvalF(x, t1, f)
	want(1, 1)
	ws.EvalFJ(linalg.Vec{0.9, 0.2}, t1, f, j)
	ws.EvalScaled(x, t1, f, nil, 0.5, 0.5)
	want(1, 1)
	ws.EvalFJ(x, t2, f, j)
	want(2, 2)
	ws.EvalF(x, t1, f) // back to an earlier time: evaluated again
	want(3, 3)

	fs, js := linalg.NewVec(n), linalg.NewMat(n, n)
	sys.EvalFJ(x, t1, fs, js)
	want(4, 4)
	b, err := circuit.NewBatch([]*circuit.System{sys, sys})
	if err != nil {
		t.Fatal(err)
	}
	bw := b.NewWorkspace()
	bw.EvalFBatch(append(x.Clone(), x...), t1)
	bw.EvalFJBatch(append(x.Clone(), 0.9, 0.2), t1)
	want(6, 6) // once per lane
	bw.EvalBatchAt(append(x.Clone(), x...), []float64{t1, t2}, false)
	want(7, 7) // lane 1 moved to t2
	ws.EvalFJ(x, t1, f, j)
	for i := range fs {
		if math.Float64bits(f[i]) != math.Float64bits(fs[i]) {
			t.Fatalf("f[%d]: workspace %x, system %x", i, f[i], fs[i])
		}
	}
	for i := range js.Data {
		if math.Float64bits(j.Data[i]) != math.Float64bits(js.Data[i]) {
			t.Fatalf("J[%d]: workspace %x, system %x", i, j.Data[i], js.Data[i])
		}
	}
}
