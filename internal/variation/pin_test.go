package variation_test

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/fourier"
	"repro/internal/gae"
	"repro/internal/noise"
	"repro/internal/ppv"
	"repro/internal/variation"
)

// TestCornerBERsPinned pins CornerBERs' hop counts on four corners of a
// fixed PPV (the default ring's node-0 harmonics, rounded), so the result
// depends on the GAE, the stochastic lanes and the per-corner sub-seeds
// alone. The corners differ in SYNC strength, logic input and detuning.
func TestCornerBERsPinned(t *testing.T) {
	p := &ppv.PPV{F0: 9600, T0: 1.0 / 9600, NodeSeries: []*fourier.Series{{Coef: []complex128{
		262, complex(775, 468), complex(84, 143.5), complex(-38, -21),
	}}}}
	sync := (cmplx.Phase(p.Harmonic(0, 2)) - math.Pi/2) / (2 * math.Pi)
	corner := func(amp, dAmp, f1 float64) variation.CornerResult {
		return variation.CornerResult{PPV: p, Model: gae.NewModel(p, f1,
			gae.Injection{Name: "SYNC", Node: 0, Amp: amp, Harmonic: 2, Phase: sync},
			gae.Injection{Name: "D", Node: 0, Amp: dAmp, Harmonic: 1, Phase: 0.1},
		)}
	}
	corners := []variation.CornerResult{
		corner(100e-6, 0, 9600),
		corner(80e-6, 15e-6, 9600),
		corner(60e-6, 25e-6, 9610),
		corner(120e-6, 5e-6, 9590),
	}
	got, err := variation.CornerBERs(context.Background(), corners, 4, noise.BEROptions{
		TBit: 0.01, Bits: 4, Members: 24, Dt: 1e-4, Seed: 5, Workers: 2, Lanes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 14, 67, 0}
	for i, r := range got {
		if r.Hops != want[i] || r.Bits != 96 || r.BER != float64(want[i])/96 {
			t.Errorf("corner %d: %+v, want %d hops over 96 bits", i, r, want[i])
		}
	}
}
