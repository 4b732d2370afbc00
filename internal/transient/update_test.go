package transient

import (
	"errors"
	"math"
	"testing"
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
		if _, err := newtonUpdate(tc.x1, tc.dx, 1e-9); !errors.Is(err, errNonFinite) {
			t.Errorf("%s: err = %v, want errNonFinite", name, err)
		}
	}
	x1 := []float64{1, 2}
	done, err := newtonUpdate(x1, []float64{4, -1}, 1e-9) // clamped to 2 V
	if err != nil || done || x1[0] != -1 || x1[1] != 2.5 {
		t.Fatalf("clamped update: x1 = %v, done %v, err %v", x1, done, err)
	}
	if done, err := newtonUpdate(x1, []float64{1e-12, 0}, 1e-9); err != nil || !done {
		t.Fatalf("tiny update: done %v, err %v", done, err)
	}
}
