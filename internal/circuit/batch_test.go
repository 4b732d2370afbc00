package circuit_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/ringosc"
)

// cornerSystems builds K congruent ring systems with per-lane parameter
// spreads (Beta, VT0, CLoad), the shape variation Monte Carlo produces.
func cornerSystems(t testing.TB, k int) []*circuit.System {
	t.Helper()
	systems := make([]*circuit.System, k)
	for i := 0; i < k; i++ {
		cfg := ringosc.DefaultConfig()
		d := float64(i) - float64(k)/2
		cfg.NMOS.Beta *= 1 + 0.05*d
		cfg.PMOS.VT0 *= 1 + 0.02*d
		cfg.CLoad *= 1 + 0.08*d
		r, err := ringosc.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = r.Sys
	}
	return systems
}

// TestEvalFJBatchBitEqualsScalar is the tentpole property test: a batched
// lane must bit-equal the scalar EvalFJ of the same corner — residual and
// every Jacobian entry, at random operating points.
func TestEvalFJBatchBitEqualsScalar(t *testing.T) {
	const K = 5
	systems := cornerSystems(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	bw := b.NewWorkspace()
	n := b.N
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, K*n)
	f := linalg.NewVec(n)
	j := linalg.NewMat(n, n)
	jb := linalg.NewMat(n, n)
	for trial := 0; trial < 25; trial++ {
		for i := range x {
			x[i] = 3 * rng.Float64() // 0..Vdd operating points, both swap orientations
		}
		tm := rng.Float64() * 1e-4
		bw.EvalFJBatch(x, tm)
		for k := 0; k < K; k++ {
			ws := systems[k].NewWorkspace()
			ws.EvalFJ(linalg.Vec(x[k*n:(k+1)*n]), tm, f, j)
			for i := 0; i < n; i++ {
				if got, want := bw.LaneF(k)[i], f[i]; got != want {
					t.Fatalf("trial %d lane %d F[%d]: batch %v != scalar %v", trial, k, i, got, want)
				}
			}
			bw.LaneJDense(jb, k)
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					if got, want := jb.At(r, c), j.At(r, c); got != want {
						t.Fatalf("trial %d lane %d J[%d,%d]: batch %v != scalar %v", trial, k, r, c, got, want)
					}
				}
			}
		}
	}
}

// mixedSystems builds K congruent systems exercising rails, a source, a
// transmission gate and a summer, resistors, conductors and a VCCS
// alongside MOSFETs.
func mixedSystems(t testing.TB, k int) []*circuit.System {
	t.Helper()
	systems := make([]*circuit.System, k)
	for i := 0; i < k; i++ {
		scale := 1 + 0.1*float64(i)
		c := circuit.New()
		vdd := c.AddDCRail("vdd", 3)
		a, bn, o := c.Node("a"), c.Node("b"), c.Node("o")
		c.Add(
			&device.Resistor{Name: "rl", A: vdd, B: a, R: 10e3 * scale},
			&device.MOSFET{Name: "mn", D: a, G: bn, S: circuit.Ground,
				Params: device.ALD1106()},
			&device.Conductor{Name: "gx", A: a, B: bn, G: 1e-5 * scale},
			&device.VCCS{Name: "vc", CtrlP: a, CtrlN: circuit.Ground, OutP: bn, OutN: circuit.Ground, Gm: 2e-5 * scale},
			&device.Capacitor{Name: "ca", A: a, B: circuit.Ground, C: 1e-9 * scale},
			&device.Capacitor{Name: "cb", A: bn, B: circuit.Ground, C: 1e-9},
			&device.Capacitor{Name: "co", A: o, B: circuit.Ground, C: 2e-9},
			&device.CurrentSource{Name: "inj", From: circuit.Ground, To: bn, Wave: &circuit.Sine{Amp: 1e-6 * scale, Freq: 10e3}},
			&device.TransGate{Name: "tg", A: a, B: o, Ctrl: bn, Ron: 1e3 * scale, Roff: 1e11},
			&device.Summer{Name: "sum", Inputs: []circuit.NodeID{a, bn, vdd}, Weights: []float64{1, -0.5 * scale, 0.25},
				Out: o, Mid: 1.5, Swing: 1.2, Rout: 100 * scale},
		)
		sys, err := c.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	return systems
}

// TestEvalFJBatchMixedDevices covers every kernel kind, rail-connected
// terminals included: a batched lane is still bit-identical to the scalar
// evaluation of its own system.
func TestEvalFJBatchMixedDevices(t *testing.T) {
	const K = 4
	systems := mixedSystems(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	bw := b.NewWorkspace()
	n := b.N
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, K*n)
	f := linalg.NewVec(n)
	j := linalg.NewMat(n, n)
	jb := linalg.NewMat(n, n)
	for trial := 0; trial < 10; trial++ {
		for i := range x {
			x[i] = -1 + 5*rng.Float64()
		}
		tm := rng.Float64() * 1e-3
		bw.EvalFJBatch(x, tm)
		for k := 0; k < K; k++ {
			ws := systems[k].NewWorkspace()
			ws.EvalFJ(linalg.Vec(x[k*n:(k+1)*n]), tm, f, j)
			bw.LaneJDense(jb, k)
			for i := 0; i < n; i++ {
				if bw.LaneF(k)[i] != f[i] {
					t.Fatalf("lane %d F[%d]: batch %v != scalar %v", k, i, bw.LaneF(k)[i], f[i])
				}
			}
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					if jb.At(r, c) != j.At(r, c) {
						t.Fatalf("lane %d J[%d,%d]: batch %v != scalar %v", k, r, c, jb.At(r, c), j.At(r, c))
					}
				}
			}
		}
	}
}

// TestBatchActiveMask checks that inactive lanes are left untouched while
// active lanes get exactly their full-batch values.
func TestBatchActiveMask(t *testing.T) {
	const K = 4
	systems := cornerSystems(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	n := b.N
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, K*n)
	for i := range x {
		x[i] = 3 * rng.Float64()
	}
	full := b.NewWorkspace()
	full.EvalFJBatch(x, 0)

	masked := b.NewWorkspace()
	sentinel := math.NaN()
	for i := range masked.F {
		masked.F[i] = sentinel
	}
	masked.SetActive([]int{1, 3})
	masked.EvalFJBatch(x, 0)
	for _, k := range []int{1, 3} {
		for i := 0; i < n; i++ {
			if masked.LaneF(k)[i] != full.LaneF(k)[i] {
				t.Fatalf("active lane %d F[%d] differs under mask", k, i)
			}
		}
	}
	for _, k := range []int{0, 2} {
		for i := 0; i < n; i++ {
			if !math.IsNaN(masked.LaneF(k)[i]) {
				t.Fatalf("inactive lane %d F[%d] was written", k, i)
			}
		}
	}
}

// TestBatchCValsOnPattern: every lane's C values sit on the shared pattern
// at its own C's entries, and lane 0's are its system's SparseC values
// themselves, not a second copy.
func TestBatchCValsOnPattern(t *testing.T) {
	systems := cornerSystems(t, 3)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	pat := b.Pattern()
	for k, s := range systems {
		cv := b.CVals(k)
		for j := 0; j < b.N; j++ {
			for p := pat.ColPtr[j]; p < pat.ColPtr[j+1]; p++ {
				if got, want := cv[p], s.C.At(pat.Rows[p], j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("lane %d C(%d,%d) = %g on the pattern, want %g", k, pat.Rows[p], j, got, want)
				}
			}
		}
	}
	if cv, sc := b.CVals(0), systems[0].SparseC().Val; &cv[0] != &sc[0] {
		t.Error("lane 0's C values are a copy of its SparseC values")
	}
}

// TestNewBatchIncongruent rejects topology mismatches.
func TestNewBatchIncongruent(t *testing.T) {
	cfgA := ringosc.DefaultConfig()
	cfgB := ringosc.DefaultConfig()
	cfgB.Stages = 5
	ra, err := ringosc.Build(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ringosc.Build(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := circuit.NewBatch([]*circuit.System{ra.Sys, rb.Sys}); err == nil {
		t.Fatal("5-stage lane accepted into 3-stage batch")
	}
	if _, err := circuit.NewBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	// Same node count, but a device's terminals, a device's type or the
	// capacitance pattern differ.
	small := func(edit func(r *device.Resistor, c *device.Capacitor) circuit.Device) *circuit.System {
		ckt := circuit.New()
		a, b := ckt.Node("a"), ckt.Node("b")
		r := &device.Resistor{Name: "r", A: a, B: b, R: 1e3}
		c := &device.Capacitor{Name: "c", A: a, B: circuit.Ground, C: 1e-9}
		ckt.Add(edit(r, c), c)
		sys, err := ckt.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	same := func(r *device.Resistor, _ *device.Capacitor) circuit.Device { return r }
	for name, edit := range map[string]func(r *device.Resistor, c *device.Capacitor) circuit.Device{
		"terminals": func(r *device.Resistor, _ *device.Capacitor) circuit.Device { r.B = circuit.Ground; return r },
		"type": func(r *device.Resistor, _ *device.Capacitor) circuit.Device {
			return &device.Conductor{Name: "r", A: r.A, B: r.B, G: 1e-3}
		},
		"capacitance": func(r *device.Resistor, c *device.Capacitor) circuit.Device { c.B = r.B; return r },
	} {
		if _, err := circuit.NewBatch([]*circuit.System{small(same), small(edit)}); err == nil {
			t.Errorf("batch with lanes whose %s differ accepted", name)
		}
	}
	if _, err := circuit.NewBatch([]*circuit.System{small(same), small(same)}); err != nil {
		t.Fatalf("congruent lanes rejected: %v", err)
	}
}

// TestBatchWorkspaceRaceIndependence runs several workspaces of one shared
// Batch concurrently (run under -race) and checks results match a serial
// reference evaluation.
func TestBatchWorkspaceRaceIndependence(t *testing.T) {
	const K = 3
	systems := cornerSystems(t, K)
	b, err := circuit.NewBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	n := b.N
	const workers = 6
	xs := make([][]float64, workers)
	want := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		x := make([]float64, K*n)
		for i := range x {
			x[i] = 3 * rng.Float64()
		}
		xs[w] = x
		ref := b.NewWorkspace()
		ref.EvalFJBatch(x, 1e-5)
		want[w] = append([]float64(nil), ref.F...)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bw := b.NewWorkspace()
			for rep := 0; rep < 50; rep++ {
				bw.EvalFJBatch(xs[w], 1e-5)
			}
			for i := range bw.F {
				if bw.F[i] != want[w][i] {
					t.Errorf("worker %d F[%d] diverged under concurrency", w, i)
					return
				}
			}
			_ = errs
		}(w)
	}
	wg.Wait()
}
