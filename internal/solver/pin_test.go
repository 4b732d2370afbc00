package solver_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

// dcDigest hashes a DC solve's work and result: Newton iterations and
// backtracks, LU factorizations and sparse refactors, circuit and Jacobian
// evaluations, then every entry of x, bit for bit.
func dcDigest(m *diag.Metrics, x linalg.Vec) string {
	h := sha256.New()
	word := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, c := range []diag.Counter{diag.NewtonIterations, diag.NewtonBacktracks, diag.LUFactorizations,
		diag.SparseRefactors, diag.CircuitEvals, diag.CircuitJacEvals} {
		word(uint64(m.Get(c)))
	}
	for _, v := range x {
		word(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedDC holds the digests of the solves TestDCOperatingPointPinned
// makes: each circuit on the backend Auto resolves for it and on the other
// one, and the continuation problem of TestDCSolveFallsBackToContinuation.
var pinnedDC = map[string]string{
	"ring/auto":      "854c0b956fa385d5",
	"ring/dense":     "854c0b956fa385d5",
	"ring/sparse":    "5f8a645fcdfa8db9",
	"latch/auto":     "87fa8c97f424d956",
	"latch/dense":    "87fa8c97f424d956",
	"latch/sparse":   "d5ff72cedf9dac77",
	"array16/auto":   "305eb609b2fcaf0a",
	"array16/dense":  "1ecb494b24b9e68a",
	"array16/sparse": "305eb609b2fcaf0a",
	"continuation":   "c845277e3bb02c9c",
}

// TestDCOperatingPointPinned holds the DC solve bit for bit — the operating
// point and the work counts — on the 3-stage ring and the D latch (dense
// under Auto), a coupled array of 16 rings (sparse, N = 48), each also on
// the other backend, and on the one-unknown atan residual of
// TestDCSolveFallsBackToContinuation from its far start (25 damped Newton
// iterations). The digests are of IEEE-754 float64 arithmetic without
// fused multiply-adds (amd64).
func TestDCOperatingPointPinned(t *testing.T) {
	ring, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	latch, err := ringosc.BuildLatch(ringosc.DefaultLatchConfig(9.6e3))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ringosc.BuildArray(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *circuit.System
	}{{"ring", ring.Sys}, {"latch", latch.Sys}, {"array16", arr.Sys}} {
		for _, be := range []linalg.Backend{linalg.BackendAuto, linalg.BackendDense, linalg.BackendSparse} {
			name := c.name + "/" + be.String()
			m := diag.New()
			ctx := diag.WithMetrics(context.Background(), m)
			x, err := solver.DCOperatingPointBackend(ctx, c.sys, nil, 0, be)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := dcDigest(m, x), pinnedDC[name]; got != want {
				t.Errorf("%s: digest %s, pinned %s (%d Newton iterations, %d factorizations)",
					name, got, want, m.Get(diag.NewtonIterations), m.Get(diag.LUFactorizations))
			}
		}
	}
	m := diag.New()
	x, err := solver.DCSolve(diag.WithMetrics(context.Background(), m), continuationFn, scalar, linalg.BackendDense, linalg.Vec{50})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dcDigest(m, x), pinnedDC["continuation"]; got != want {
		t.Errorf("continuation: digest %s, pinned %s", got, want)
	}
}
