package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/gae"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// testEngine returns an engine with a cheap (but real) PSS configuration so
// the pipeline tests stay fast: 256 steps/period converges on the paper's
// ring in a few hundred milliseconds.
func testEngine(opt Options) *Engine {
	if opt.PSS.StepsPerPeriod == 0 {
		opt.PSS = pss.Options{StepsPerPeriod: 256, SettleCycles: 10}
	}
	return New(opt)
}

// TestSingleflightCoalesces is the concurrency witness required of the
// engine: N concurrent identical requests perform exactly one underlying
// PSS computation, certified by the diag counters (1 miss, N−1 of
// coalesced/hits) and by pointer identity of the returned artifact. Run
// under -race this also certifies the flight bookkeeping is data-race free.
func TestSingleflightCoalesces(t *testing.T) {
	e := testEngine(Options{})
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)
	cfg := ringosc.DefaultConfig()

	const callers = 8
	sols := make([]*pss.Solution, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sols[i], errs[i] = e.RingPSS(ctx, cfg)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if sols[i] != sols[0] {
			t.Fatalf("caller %d received a different artifact pointer", i)
		}
	}
	if got := dm.Get(diag.EngineMisses); got != 1 {
		t.Fatalf("misses = %d, want exactly 1 underlying computation", got)
	}
	if got := dm.Get(diag.EngineCoalesced) + dm.Get(diag.EngineHits); got != callers-1 {
		t.Fatalf("coalesced+hits = %d, want %d", got, callers-1)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Coalesced+st.Hits != callers-1 {
		t.Fatalf("engine stats disagree with diag counters: %+v", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("expected one byte-accounted resident artifact, got %+v", st)
	}
}

// TestRingPPVWarmHit: the second identical request is a cache hit returning
// the same shared chain, and the nested PSS stage is reused rather than
// recomputed (Workers: 1 also proves the nested flight does not dead-lock
// on the engine's single pool slot).
func TestRingPPVWarmHit(t *testing.T) {
	e := testEngine(Options{Workers: 1})
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)
	cfg := ringosc.DefaultConfig()

	r1, sol1, p1, err := e.RingPPV(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if misses := dm.Get(diag.EngineMisses); misses != 2 { // ppv chain + nested pss
		t.Fatalf("cold chain misses = %d, want 2 (ppv + pss)", misses)
	}
	r2, sol2, p2, err := e.RingPPV(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || sol1 != sol2 || p1 != p2 {
		t.Fatal("warm request did not return the shared artifact")
	}
	if hits := dm.Get(diag.EngineHits); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if misses := dm.Get(diag.EngineMisses); misses != 2 {
		t.Fatalf("warm request recomputed: misses = %d", misses)
	}
	// A PSS request for the same config rides the chain's cached stage.
	if _, sol3, err := e.RingPSS(ctx, cfg); err != nil || sol3 != sol1 {
		t.Fatalf("PSS stage not shared: err=%v", err)
	}
}

// TestGenericOscillatorSharesRingArtifacts: the generic PSS/PPV entry
// points and the ring-specific helpers are two doors into one cache — a
// *ringosc.Ring passed as a plain Oscillator resolves to the same shared
// artifacts as the cfg-keyed RingPSS/RingPPV, and a latch (a different
// oscillator kind) gets its own key even though its ring core config is
// identical.
func TestGenericOscillatorSharesRingArtifacts(t *testing.T) {
	e := testEngine(Options{})
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)
	cfg := ringosc.DefaultConfig()

	r, sol1, err := e.RingPSS(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol2, err := e.PSS(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if sol1 != sol2 {
		t.Fatal("generic PSS(ring) did not ride the RingPSS artifact")
	}
	if got := dm.Get(diag.EngineMisses); got != 1 {
		t.Fatalf("misses = %d, want 1 (the generic call must be a pure hit)", got)
	}

	// A second ring instance with an equal config shares the artifact too
	// (content addressing, not pointer identity).
	r2, err := ringosc.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol3, p3, err := e.PPV(ctx, r2)
	if err != nil {
		t.Fatal(err)
	}
	if sol3 != sol1 {
		t.Fatal("PPV chain recomputed the shared PSS stage")
	}
	_, _, p4, err := e.RingPPV(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p4 {
		t.Fatal("RingPPV did not ride the generic PPV artifact")
	}

	// A different oscillator kind must not collide with the ring's key even
	// though its embedded ring config is byte-identical.
	kind, _ := r.OscillatorKey()
	lk, _ := e.keys(kind, cfg)
	if other, _ := e.keys("other", cfg); lk == other {
		t.Fatal("oscillator kind is not part of the cache key")
	}
}

// TestEngineWarmSpeedup pins the headline claim: a warm-cache RingPPV is at
// least 50x faster than the cold computation. The real ratio is orders of
// magnitude larger (a map lookup vs. a full shooting solve), so the factor
// 50 leaves plenty of margin for -race and CI noise.
func TestEngineWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	e := testEngine(Options{})
	ctx := context.Background()
	cfg := ringosc.DefaultConfig()

	cold := time.Now()
	if _, _, _, err := e.RingPPV(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	coldD := time.Since(cold)

	const warmN = 100
	warm := time.Now()
	for i := 0; i < warmN; i++ {
		if _, _, _, err := e.RingPPV(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	warmD := time.Since(warm) / warmN
	if warmD <= 0 {
		warmD = time.Nanosecond
	}
	if ratio := float64(coldD) / float64(warmD); ratio < 50 {
		t.Fatalf("warm speedup %.1fx (cold %v, warm %v), want >= 50x", ratio, coldD, warmD)
	}
}

// TestLRUEvictionAtCapacity drives the white-box memoization core with
// synthetic artifacts: inserting past the byte capacity evicts the coldest
// entries, keeps the accounting exact, and a re-request of an evicted key
// recomputes instead of serving a stale pointer.
func TestLRUEvictionAtCapacity(t *testing.T) {
	e := New(Options{CapacityBytes: 100})
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)
	computes := map[string]int{}
	mk := func(key string, bytes int64) func(context.Context) (any, int64, error) {
		return func(context.Context) (any, int64, error) {
			computes[key]++
			return key + "-artifact", bytes, nil
		}
	}
	for _, key := range []string{"a", "b", "c"} {
		if _, err := e.do(ctx, key, mk(key, 40)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 × 40 > 100: "a" (coldest) must have been evicted.
	st := e.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("after overflow: %+v, want 1 eviction, 2 entries, 80 bytes", st)
	}
	if dm.Get(diag.EngineEvictions) != 1 {
		t.Fatalf("diag evictions = %d, want 1", dm.Get(diag.EngineEvictions))
	}
	if v, err := e.do(ctx, "b", mk("b", 40)); err != nil || v != "b-artifact" {
		t.Fatalf("resident entry: v=%v err=%v", v, err)
	}
	if computes["b"] != 1 {
		t.Fatal("resident entry was recomputed")
	}
	if _, err := e.do(ctx, "a", mk("a", 40)); err != nil {
		t.Fatal(err)
	}
	if computes["a"] != 2 {
		t.Fatalf("evicted entry computes = %d, want 2 (recompute)", computes["a"])
	}
	// Touching "b" just made it hottest, so inserting "a" evicted "c".
	if v, err := e.do(ctx, "b", mk("b", 40)); err != nil || v != "b-artifact" || computes["b"] != 1 {
		t.Fatalf("LRU order broken: v=%v err=%v computes=%v", v, err, computes)
	}
}

// TestOversizedArtifactAdmitted: an artifact larger than the whole capacity
// still lands in the cache (it evicts everything else); refusing it would
// make its key a permanent miss.
func TestOversizedArtifactAdmitted(t *testing.T) {
	e := New(Options{CapacityBytes: 100})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := e.do(ctx, "big", func(context.Context) (any, int64, error) {
			return "big-artifact", 1000, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("oversized artifact not cached: %+v", st)
	}
}

// TestCancellationDoesNotPoisonCache: canceling the only waiter of an
// in-flight computation aborts it and returns ctx.Err(), and the next
// request for the same key starts a fresh computation that succeeds — the
// canceled flight leaves no cached error and no stale flight entry.
func TestCancellationDoesNotPoisonCache(t *testing.T) {
	e := New(Options{})
	dm := diag.New()
	ctx := diag.WithMetrics(context.Background(), dm)

	started := make(chan struct{})
	aborted := make(chan error, 1)
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		_, err := e.do(cctx, "k", func(fctx context.Context) (any, int64, error) {
			close(started)
			<-fctx.Done() // block until the refcounted cancel propagates
			aborted <- fctx.Err()
			return nil, 0, fctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			aborted <- fmt.Errorf("waiter returned %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case err := <-aborted:
		if !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("computation was not canceled when its last waiter left")
	}

	// The flight must drain; poll briefly (publication happens just after
	// the abort signal above).
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		n := len(e.flights)
		e.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled flight still registered")
		}
		time.Sleep(time.Millisecond)
	}

	v, err := e.do(ctx, "k", func(context.Context) (any, int64, error) {
		return "fresh", 8, nil
	})
	if err != nil || v != "fresh" {
		t.Fatalf("post-cancel request: v=%v err=%v", v, err)
	}
	if got := dm.Get(diag.EngineMisses); got != 2 {
		t.Fatalf("misses = %d, want 2 (canceled + fresh)", got)
	}
	if st := e.Stats(); st.Entries != 1 {
		t.Fatalf("fresh artifact not cached: %+v", st)
	}
}

// TestGAESweepBatch: duplicate configs in one batch share a single
// extraction, and the sweep results are identical across the duplicates.
func TestGAESweepBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline batch skipped in -short")
	}
	e := testEngine(Options{})
	ctx := context.Background()
	req := GAESweepRequest{
		Config:   ringosc.DefaultConfig(),
		SyncNode: 0, SyncHarm: 2,
		Amps: []float64{50e-6, 100e-6, 150e-6},
	}
	res, err := e.GAESweepBatch(ctx, []GAESweepRequest{req, req})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(res[0].Points) != 3 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if st := e.Stats(); st.Misses != 2 { // one pss + one ppv computation in total
		t.Fatalf("duplicate batch items recomputed the chain: %+v", st)
	}
	for i, pt := range res[0].Points {
		if res[1].Points[i] != pt {
			t.Fatalf("duplicate requests disagree at point %d", i)
		}
	}
	// The strongest drive must lock over a wider band (sanity on content).
	last := res[0].Points[len(res[0].Points)-1]
	if !last.Locks || last.F1Hi <= last.F1Lo {
		t.Fatalf("150 µA SYNC should lock: %+v", last)
	}
	var _ = gae.Injection{} // keep the gae import honest if fields shift
}
