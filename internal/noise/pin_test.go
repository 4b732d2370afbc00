package noise_test

import (
	"context"
	"hash/fnv"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/fourier"
	"repro/internal/gae"
	"repro/internal/noise"
	"repro/internal/ppv"
)

// pinPPV is a fixed single-node PPV with the default ring's node-0
// harmonics rounded to a few digits. The pins below then depend on the GAE
// and the stochastic stepper alone, not on how a PSS/PPV extraction rounds.
func pinPPV() *ppv.PPV {
	return &ppv.PPV{F0: 9600, T0: 1.0 / 9600, NodeSeries: []*fourier.Series{{Coef: []complex128{
		262, complex(775, 468), complex(84, 143.5), complex(-38, -21),
	}}}}
}

// pinModel is a SHIL latch on pinPPV: SYNC at the harmonic-2 phase that
// puts a stable lock at Δφ = 0, plus a weak logic input at harmonic 1.
func pinModel() *gae.Model {
	p := pinPPV()
	sync := (cmplx.Phase(p.Harmonic(0, 2)) - math.Pi/2) / (2 * math.Pi)
	return gae.NewModel(p, p.F0,
		gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2, Phase: sync},
		gae.Injection{Name: "D", Node: 0, Amp: 20e-6, Harmonic: 1, Phase: 0.1},
	)
}

// hashResults folds every recorded sample's bits, the lengths and the hop
// counts of rs into one FNV-1a hash. A nil member hashes as a marker.
func hashResults(rs ...*noise.StochasticResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range rs {
		if r == nil {
			word(math.MaxUint64)
			continue
		}
		word(uint64(len(r.T)))
		word(uint64(len(r.Dphi)))
		for k := range r.T {
			word(math.Float64bits(r.T[k]))
		}
		for _, x := range r.Dphi {
			word(math.Float64bits(x))
		}
		word(uint64(r.Hops))
	}
	return h.Sum64()
}

// TestStochasticOutputsPinned pins the exact output of the stochastic
// stepper through each of its entry points: trajectories and hops of
// StochasticTransient (an empty window and the [0, 0.7]/0.1 grid among
// them), ensemble members at two worker counts across two lane groups, and
// EstimateBER's hop count at four lane widths. Any change to the step
// expression, the draw order, the grid or the hop rule moves a hash.
func TestStochasticOutputsPinned(t *testing.T) {
	locked := pinModel()
	walk := &gae.Model{P: &ppv.PPV{F0: 1e4}, F1: 1e4} // zero drift: a pure random walk
	for _, c := range []struct {
		name          string
		m             *gae.Model
		dphi0, d      float64
		t0, t1, dt    float64
		seed          int64
		samples, hops int
		hash          uint64
	}{
		{"locked seed 1", locked, 0, 5e-3, 0, 0.05, 1e-4, 1, 501, 0, 0xfc47c98839f6b3ec},
		{"locked seed 2 from ½", locked, 0.5, 5e-3, 0, 0.05, 1e-4, 2, 501, 0, 0x9809a5cd33a26830},
		{"hot seed 3", locked, 0, 8, 0, 0.2, 1e-4, 3, 2001, 7, 0xd1a166db32ff9c5c},
		{"walk seed 4", walk, 0, 5, 0, 1, 1e-3, 4, 1001, 40, 0xd713090485adbb8e},
		{"empty window", locked, 0, 5e-3, 0.5, 0.4, 1e-4, 5, 0, 0, 0x81d23fd7003c2305},
		{"[0, 0.7] at 0.1", walk, 0.1, 1, 0, 0.7, 0.1, 6, 8, 2, 0x28c5acecbb73ff60},
	} {
		r := noise.StochasticTransient(c.m, c.dphi0, c.d, c.t0, c.t1, c.dt, c.seed)
		if len(r.Dphi) != c.samples || r.Hops != c.hops {
			t.Errorf("%s: %d samples, %d hops; want %d, %d", c.name, len(r.Dphi), r.Hops, c.samples, c.hops)
		}
		if got := hashResults(r); got != c.hash {
			t.Errorf("%s: hash %#x, want %#x", c.name, got, c.hash)
		}
	}

	// 70 members span two 64-lane groups.
	const ensHash uint64 = 0xb00f8e2cf0590d75
	for _, workers := range []int{1, 3} {
		ens, err := noise.StochasticEnsemble(context.Background(), locked, 0, 0.3, 0, 0.02, 1e-4, 7, 70, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashResults(ens...); got != ensHash {
			t.Errorf("ensemble at %d workers: hash %#x, want %#x", workers, got, ensHash)
		}
	}

	const berHops = 82
	for _, lanes := range []int{1, 4, 16, 64} {
		ber, err := noise.EstimateBER(context.Background(), locked, 6, noise.BEROptions{
			TBit: 0.01, Bits: 5, Members: 40, Dt: 1e-4, Seed: 9, Workers: 2, Lanes: lanes,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ber.Hops != berHops || ber.Bits != 200 {
			t.Errorf("EstimateBER at %d lanes: %d hops over %d bits, want %d over 200", lanes, ber.Hops, ber.Bits, berHops)
		}
	}
}
