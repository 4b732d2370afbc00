package transient_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// pinCircuit is a circuit the pinned runs integrate: a start state, a start
// time and a step.
type pinCircuit struct {
	name   string
	sys    *circuit.System
	x0     linalg.Vec
	t0, h  float64
	adaptH float64 // the adaptive runs' initial step
}

// pinCircuits returns the RC charge, the 3-stage ring from its kick-start,
// and the SPICE-level adder from its kick-start 40 steps before its first
// clock boundary, which its 64 steps cross.
func pinCircuits(t *testing.T) []pinCircuit {
	t.Helper()
	r, err := ringosc.Build(ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	T := 1 / r.EstimatedF0()
	adder, ax0, ah := oracleAdder(t)
	period := 1024 * ah // ClockCycles/F1 of oracleAdder
	return []pinCircuit{
		{"rc", rcCircuit(t), linalg.Vec{0}, 0, 1e-3 / 64, 1e-3 / 16},
		{"ring", r.Sys, r.KickStart(), 0, T / 256, T / 64},
		{"adder", adder, ax0, period - 40*ah, ah, ah},
	}
}

// pinDigest hashes a run's whole Result: the counts, then every recorded
// time and state and the monodromy, bit for bit.
func pinDigest(res *transient.Result) string {
	h := sha256.New()
	word := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, c := range []int{res.Steps, res.Rejected, res.NewtonIters, len(res.T)} {
		word(uint64(c))
	}
	for i, tt := range res.T {
		word(math.Float64bits(tt))
		for _, v := range res.X[i] {
			word(math.Float64bits(v))
		}
	}
	if res.Sens != nil {
		for _, v := range res.Sens.Data {
			word(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedRuns holds the digests of the runs TestRunPinned makes, one per
// circuit, method, stepping and backend, over Sensitivity off and on and
// Record 1 and 4.
var pinnedRuns = map[string]string{
	"rc/BE/whole/dense":            "63c5745b15b7e3f4",
	"rc/BE/whole/sparse":           "9e48c1bc52e0adc8",
	"rc/BE/remainder/dense":        "e2462cf2a4e9b812",
	"rc/BE/remainder/sparse":       "c0495b79a8f3cbff",
	"rc/BE/adaptive/dense":         "7986658154a5920a",
	"rc/BE/adaptive/sparse":        "2be84f577260fa52",
	"rc/TRAP/whole/dense":          "14b5ac990fa39a1d",
	"rc/TRAP/whole/sparse":         "50fd7dd8cec50c46",
	"rc/TRAP/remainder/dense":      "2e0cdb0675e07493",
	"rc/TRAP/remainder/sparse":     "a4870b3b6b41453c",
	"rc/TRAP/adaptive/dense":       "24cf92a786093281",
	"rc/TRAP/adaptive/sparse":      "3d41c3f3a1a04f57",
	"rc/GEAR2/whole/dense":         "1729bcf470227dcd",
	"rc/GEAR2/whole/sparse":        "1729bcf470227dcd",
	"rc/GEAR2/remainder/dense":     "312d8ee222c8ce5b",
	"rc/GEAR2/remainder/sparse":    "312d8ee222c8ce5b",
	"ring/BE/whole/dense":          "c4e3849c2de851c4",
	"ring/BE/whole/sparse":         "fe35e2b96c2db6e7",
	"ring/BE/remainder/dense":      "d6e716cf4280ed72",
	"ring/BE/remainder/sparse":     "6a8e456e8b4ad61a",
	"ring/BE/adaptive/dense":       "980c47d303fc18ad",
	"ring/BE/adaptive/sparse":      "440207a1950b0c89",
	"ring/TRAP/whole/dense":        "372aaab85ac4d7dd",
	"ring/TRAP/whole/sparse":       "2e7694dfbfc01a62",
	"ring/TRAP/remainder/dense":    "d60856f9609c6cb3",
	"ring/TRAP/remainder/sparse":   "9bd39e4d3c869630",
	"ring/TRAP/adaptive/dense":     "e28ea8fd8928c480",
	"ring/TRAP/adaptive/sparse":    "d080b2fd0d3651a0",
	"ring/GEAR2/whole/dense":       "9d9e15315f197cd8",
	"ring/GEAR2/whole/sparse":      "9d9e15315f197cd8",
	"ring/GEAR2/remainder/dense":   "e469e0e2f102595b",
	"ring/GEAR2/remainder/sparse":  "b30bda84bc77fbb2",
	"adder/BE/whole/dense":         "50c975c6d6ac6751",
	"adder/BE/whole/sparse":        "a768f568da0aafe1",
	"adder/BE/remainder/dense":     "67a7364dcaf546d1",
	"adder/BE/remainder/sparse":    "ca84eb4f13b96d42",
	"adder/BE/adaptive/dense":      "44e755e84162bb83",
	"adder/BE/adaptive/sparse":     "316d3609fbd386a3",
	"adder/TRAP/whole/dense":       "766b3ab0b5a3ed03",
	"adder/TRAP/whole/sparse":      "78bf04ea6ea23c8c",
	"adder/TRAP/remainder/dense":   "13b41041143afb9b",
	"adder/TRAP/remainder/sparse":  "0c9b2aeb72a15d2b",
	"adder/TRAP/adaptive/dense":    "30cf7b3286a70cba",
	"adder/TRAP/adaptive/sparse":   "248b5496056ac190",
	"adder/GEAR2/whole/dense":      "0ffa9bc379d1a267",
	"adder/GEAR2/whole/sparse":     "cb7dec38eab3287e",
	"adder/GEAR2/remainder/dense":  "2a88e473dba5caf3",
	"adder/GEAR2/remainder/sparse": "e81b2307e86ee49f",
}

// TestRunPinned holds RunCtx's results bit for bit — T, X, Sens, Steps,
// Rejected and NewtonIters — on runs that halve no step: BE, Trap and Gear2
// on both backends, over whole-number and remainder intervals of fixed
// steps and adaptive θ steps, with and without sensitivities, recording
// every point and every fourth, on the RC charge, the ring and the adder
// across a clock boundary. The digests are of IEEE-754 float64 arithmetic
// without fused multiply-adds (amd64).
func TestRunPinned(t *testing.T) {
	type stepping struct {
		name     string
		steps    float64 // the interval in steps of h
		adaptive bool
	}
	steppings := []stepping{{"whole", 64, false}, {"remainder", 64.37, false}, {"adaptive", 64, true}}
	for _, c := range pinCircuits(t) {
		for _, m := range []transient.Method{transient.BE, transient.Trap, transient.Gear2} {
			for _, st := range steppings {
				if st.adaptive && m == transient.Gear2 {
					continue
				}
				for _, bk := range oracleBackends {
					name := fmt.Sprintf("%s/%v/%s/%v", c.name, m, st.name, bk)
					h := sha256.New()
					for _, sens := range []bool{false, true} {
						for _, rec := range []int{1, 4} {
							opt := transient.Options{Method: m, Step: c.h, Adaptive: st.adaptive, Sensitivity: sens, Record: rec, Backend: bk}
							if st.adaptive {
								opt.Step = c.adaptH
							}
							res, err := transient.Run(c.sys, c.x0, c.t0, c.t0+st.steps*c.h, opt)
							if err != nil {
								t.Fatalf("%s sens=%v record=%d: %v", name, sens, rec, err)
							}
							if !st.adaptive && res.Rejected != 0 {
								t.Fatalf("%s sens=%v record=%d: %d rejections in a run meant to halve no step", name, sens, rec, res.Rejected)
							}
							fmt.Fprintln(h, pinDigest(res))
						}
					}
					got := hex.EncodeToString(h.Sum(nil))[:16]
					if want := pinnedRuns[name]; got != want {
						t.Errorf("%s: digest %s, pinned %s", name, got, want)
					}
				}
			}
		}
	}
}
