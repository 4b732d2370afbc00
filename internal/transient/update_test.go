package transient

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
)

// TestNewtonUpdateRejectsNonFinite: NaN or infinite update entries, and an
// infinite iterate, fail the iteration; finite ones clamp and converge as
// before.
func TestNewtonUpdateRejectsNonFinite(t *testing.T) {
	for name, tc := range map[string]struct{ x1, dx []float64 }{
		"NaN update":       {[]float64{1, 2}, []float64{math.NaN(), 0}},
		"all-NaN update":   {[]float64{1, 2}, []float64{math.NaN(), math.NaN()}},
		"+Inf update":      {[]float64{1, 2}, []float64{1, math.Inf(1)}},
		"-Inf update":      {[]float64{1, 2}, []float64{math.Inf(-1), 0}},
		"infinite iterate": {[]float64{math.Inf(1), 2}, []float64{0, 0}},
		"NaN iterate":      {[]float64{math.NaN(), 2}, []float64{0, 0}},
	} {
		if _, _, err := newtonUpdate(tc.x1, tc.dx); !errors.Is(err, errNonFinite) {
			t.Errorf("%s: err = %v, want errNonFinite", name, err)
		}
	}
	x1 := []float64{1, 2}
	var p newtonPolicy
	done, err := p.apply(x1, []float64{4, -1}, 1e-9, true) // clamped to 2 V
	if err != nil || done || x1[0] != -1 || x1[1] != 2.5 {
		t.Fatalf("clamped update: x1 = %v, done %v, err %v", x1, done, err)
	}
	if done, err := p.apply(x1, []float64{1e-12, 0}, 1e-9, false); err != nil || !done {
		t.Fatalf("tiny update: done %v, err %v", done, err)
	}
}

// TestPredictExtrapolatesQuadratics: with three points of history the
// predictor reproduces any quadratic in t exactly, on unequal steps; with
// two it is the line through them, with one the last point itself.
func TestPredictExtrapolatesQuadratics(t *testing.T) {
	q := func(tt float64) float64 { return 0.3 - 1.7*tt + 2.5*tt*tt }
	l := func(tt float64) float64 { return 0.3 - 1.7*tt }
	const t0, h2, h1, h = 1.0, 0.5, 0.25, 0.375 // t0 is the last accepted point
	pred := make([]float64, 2)
	at := func(f func(float64) float64, tt float64) []float64 { return []float64{f(tt), -f(tt)} }
	for _, c := range []struct {
		name   string
		f      func(float64) float64
		h1, h2 float64
	}{{"quadratic", q, h1, h2}, {"linear", l, h1, 0}, {"none", q, 0, 0}} {
		predict(pred, at(c.f, t0), at(c.f, t0-c.h1), at(c.f, t0-c.h1-c.h2), h, c.h1, c.h2)
		want := c.f(t0 + h)
		if c.h1 == 0 {
			want = c.f(t0)
		}
		if math.Abs(pred[0]-want) > 1e-14 || math.Abs(pred[1]+want) > 1e-14 {
			t.Errorf("%s: predicted %v, want ±%v", c.name, pred, want)
		}
	}
	// Equal steps give the textbook 3x − 3xp + xpp exactly.
	predict(pred, []float64{1, 2}, []float64{0.5, 1}, []float64{0.125, 4}, 1e-7, 1e-7, 1e-7)
	if pred[0] != 1.625 || pred[1] != 7 {
		t.Errorf("equal steps: predicted %v, want [1.625 7]", pred)
	}
}

// TestNewtonLoopChordDecisions scripts a step's Newton updates and checks
// which iterations the policy refactors: a fresh update above the gate
// refactors again; one within it lets the next iteration reuse the
// factorization; a chord update that contracts by less than 0.3× makes the
// next iteration refactor, one that contracts faster keeps the chord. A
// step started on a carried factorization takes its first iteration as a
// chord and holds that update to the gate like a fresh one's.
func TestNewtonLoopChordDecisions(t *testing.T) {
	type iteration struct {
		refactor bool    // what the policy must ask for
		dx       float64 // the update the iteration applies
	}
	for _, c := range []struct {
		name    string
		carried bool
		script  []iteration
	}{
		{"fresh", false, []iteration{
			{true, 5e-3},   // fresh, above 1e-3·(1+|x|∞): refactor again
			{true, 4e-4},   // fresh, within the gate: chord next
			{false, 2e-4},  // chord, contracted by only 0.5×: refactor next
			{true, 1e-5},   // fresh, within the gate: chord next
			{false, 2e-6},  // chord, contracted 0.2×: keep the chord
			{false, 1e-12}, // converged
		}},
		{"carried within the gate", true, []iteration{
			{false, 4e-4},  // carried, within the gate: keep the chord
			{false, 1e-4},  // chord, contracted 0.25×: keep the chord
			{false, 1e-12}, // converged
		}},
		{"carried above the gate", true, []iteration{
			{false, 5e-3},  // carried, above the gate: refactor next
			{true, 4e-4},   // fresh, within the gate: chord next
			{false, 1e-12}, // converged
		}},
	} {
		x1 := linalg.Vec{0}
		p := newtonPolicy{chord: c.carried}
		for k, it := range c.script {
			fresh := p.refactor()
			if fresh != it.refactor {
				t.Fatalf("%s: iteration %d: refactor = %v, want %v", c.name, k, fresh, it.refactor)
			}
			done, err := p.apply(x1, linalg.Vec{it.dx}, 1e-9, fresh)
			if err != nil || done != (k == len(c.script)-1) {
				t.Fatalf("%s: iteration %d: converged %v, err %v", c.name, k, done, err)
			}
		}
	}
}
