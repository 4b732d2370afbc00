package noise_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gae"
	"repro/internal/noise"
	"repro/internal/parallel"
)

// lockedModel is the standard SHIL-locked latch model used across the batch
// tests: a calibrated SYNC at harmonic 2 plus a weak logic input at 1, so
// the folded CompiledG has a real multi-harmonic stack.
func lockedModel(t testing.TB) *gae.Model {
	p, cal := ringPPV(t)
	return gae.NewModel(p, p.F0,
		gae.Injection{Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2, Phase: cal.SyncPhase},
		gae.Injection{Name: "D", Node: 0, Amp: 20e-6, Harmonic: 1, Phase: 0.1},
	)
}

// sameResult compares two stochastic results bit for bit.
func sameResult(t *testing.T, ctxMsg string, got, want *noise.StochasticResult) {
	t.Helper()
	if got.Hops != want.Hops {
		t.Fatalf("%s: hops %d, want %d", ctxMsg, got.Hops, want.Hops)
	}
	if len(got.T) != len(want.T) || len(got.Dphi) != len(want.Dphi) {
		t.Fatalf("%s: shape (%d,%d), want (%d,%d)", ctxMsg, len(got.T), len(got.Dphi), len(want.T), len(want.Dphi))
	}
	for k := range want.Dphi {
		if got.T[k] != want.T[k] || got.Dphi[k] != want.Dphi[k] {
			t.Fatalf("%s: sample %d: (%v,%v) want (%v,%v)", ctxMsg, k, got.T[k], got.Dphi[k], want.T[k], want.Dphi[k])
		}
	}
}

// subSeeds returns the ensemble seeds of members lo..hi−1.
func subSeeds(seed int64, lo, hi int) []int64 {
	out := make([]int64, hi-lo)
	for i := range out {
		out[i] = parallel.SubSeed(seed, lo+i)
	}
	return out
}

// The bit-identity property: a StochasticBatch lane must equal
// StochasticTransient with the same seed — trajectory and hop count — for
// any lane grouping and any lane order.
func TestStochasticBatchLaneBitIdenticalToTransient(t *testing.T) {
	m := lockedModel(t)
	const (
		d    = 2e-3
		dt   = 1e-4
		t1   = 0.02
		seed = 42
	)
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	cg := m.Compile()
	seeds := subSeeds(seed, 0, 17)
	for _, dphi0 := range []float64{0, 0.5} {
		want := make([]*noise.StochasticResult, len(seeds))
		for i, s := range seeds {
			want[i] = noise.StochasticTransient(m, dphi0, d, 0, t1, dt, s)
		}
		opt := noise.BatchOptions{Dphi0: dphi0, D: d, T1: t1, Dt: dt, Record: true}

		// One wide batch.
		got, err := noise.StochasticBatch(ctx, cg, seeds, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			sameResult(t, "wide batch", got[i], want[i])
		}

		// Random partitions into narrower batches, in shuffled lane order.
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(len(seeds))
			for lo := 0; lo < len(perm); {
				hi := min(lo+1+rng.Intn(7), len(perm))
				sub := make([]int64, hi-lo)
				for j := range sub {
					sub[j] = seeds[perm[lo+j]]
				}
				res, err := noise.StochasticBatch(ctx, cg, sub, opt)
				if err != nil {
					t.Fatal(err)
				}
				for j := range sub {
					sameResult(t, "narrow batch", res[j], want[perm[lo+j]])
				}
				lo = hi
			}
		}
	}
}

// One CompiledG shared by concurrent batched ensembles must be race-free
// (run under -race via make check) and give the same bits as a lone run.
func TestStochasticBatchSharedCompiledGConcurrent(t *testing.T) {
	m := lockedModel(t)
	cg := m.Compile()
	ctx := context.Background()
	opt := noise.BatchOptions{Dphi0: 0.5, D: 1e-3, T1: 0.03, Dt: 1e-4, Record: true}
	seeds := subSeeds(3, 0, 2)
	ref, err := noise.StochasticBatch(ctx, cg, seeds, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := noise.StochasticBatch(ctx, cg, seeds, opt)
			if err != nil {
				errs[g] = err
				return
			}
			for i := range res {
				for k := range res[i].Dphi {
					if res[i].Dphi[k] != ref[i].Dphi[k] {
						errs[g] = fmt.Errorf("lane %d sample %d diverged under concurrency", i, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// The ensemble and BER paths must agree with per-member StochasticTransient
// exactly, BER at any lane width.
func TestEnsembleAndBERMatchTransientMembers(t *testing.T) {
	m := lockedModel(t)
	const (
		members = 11
		d       = 5e-3
		t1      = 0.05
		dt      = 1e-4
		seed    = 13
	)
	ctx := context.Background()
	wantHops := 0
	want := make([]*noise.StochasticResult, members)
	for i := range want {
		want[i] = noise.StochasticTransient(m, 0, d, 0, t1, dt, parallel.SubSeed(seed, i))
		wantHops += want[i].Hops
	}
	ens, err := noise.StochasticEnsemble(ctx, m, 0, d, 0, t1, dt, seed, members, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ens {
		sameResult(t, "ensemble member", ens[i], want[i])
	}
	for _, lanes := range []int{1, 4, 64} {
		ber, err := noise.EstimateBER(ctx, m, d, noise.BEROptions{
			TBit: t1 / 5, Bits: 5, Members: members, Dt: dt, Seed: seed, Lanes: lanes,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ber.Hops != wantHops {
			t.Fatalf("lanes=%d: batched BER hops %d, transient members %d", lanes, ber.Hops, wantHops)
		}
		if ber.Bits != members*5 {
			t.Fatalf("lanes=%d: bits %d, want %d", lanes, ber.Bits, members*5)
		}
	}
}

// The preallocation satellite: StochasticTransient must allocate only the
// result struct, its two exact-length arrays, the compiled model and the
// RNG — independent of the step count.
func TestStochasticTransientAllocsFlat(t *testing.T) {
	m := lockedModel(t)
	alloc := func(steps int) float64 {
		t1 := float64(steps) * 1e-4
		return testing.AllocsPerRun(20, func() {
			noise.StochasticTransient(m, 0, 1e-3, 0, t1, 1e-4, 1)
		})
	}
	small, large := alloc(16), alloc(4096)
	if large > small+1 {
		t.Fatalf("allocs grow with steps: %.0f at 16 steps, %.0f at 4096 (arrays not preallocated?)", small, large)
	}
	if large > 16 {
		t.Fatalf("StochasticTransient allocates %.0f objects/run; want ≤16", large)
	}
}
