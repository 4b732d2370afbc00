// Package engine is the memoizing analysis engine of the design tools: a
// concurrency-safe, content-addressed cache of the expensive pipeline
// artifacts every designer flow repeats — periodic steady states (shooting)
// and PPV phase macromodels — with singleflight deduplication so N
// concurrent requests for the same artifact trigger exactly one
// computation.
//
// The design follows the macromodeling argument of the source papers: an
// extracted PPV is a reusable abstraction of its oscillator (Roychowdhury's
// PRC-hierarchy work), and a single latch macromodel serves every gate of a
// phase-logic system. One extraction should therefore feed thousands of
// downstream GAE/noise/FSM analyses, not be recomputed by each of them.
//
// Mechanics:
//
//   - Keys are canonical content hashes of (circuit config, solver/PSS
//     options) — see Fingerprint; field order never matters.
//   - A cache miss opens a singleflight: concurrent requests for the same
//     key attach to the in-progress computation (diag.EngineCoalesced) and
//     all receive its result. Cancellation is refcounted: the computation is
//     aborted only when every attached caller has gone, and errors —
//     including cancellations — are never cached, so a canceled flight
//     cannot poison the cache.
//   - Artifacts live in a byte-accounted LRU (Options.CapacityBytes);
//     evictions are counted in diag.EngineEvictions and Stats.
//   - The engine owns a bounded compute pool (Options.Workers): at most
//     that many artifact computations run at once, and batch APIs fan out
//     on the same bound. Cached artifacts are shared pointers — they are
//     immutable by the repository's concurrency contract (immutable
//     circuit.System, per-call workspaces) and must not be mutated.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/gae"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

// Oscillator is the engine's substrate abstraction: anything that can be
// assembled into an autonomous ODE system with a limit cycle may flow
// through the PSS/PPV cache — the paper's square-law ring or a future
// non-MOSFET backend. A circuit driven by a time-dependent source has no
// such cycle; its solve fails with pss.ErrNotAutonomous.
//
// OscillatorKey names the artifact: a short lowercase kind tag plus the full
// build configuration. Both are folded into the content-addressed cache key,
// so two oscillator kinds with coincidentally equal configs never collide,
// and two instances of one kind with equal configs share one artifact.
type Oscillator interface {
	// System returns the assembled ODE system (immutable by the repository's
	// concurrency contract).
	System() *circuit.System
	// InitialState returns a state off the unstable equilibria, from which
	// transient settling falls onto the oscillation limit cycle.
	InitialState() []float64
	// EstimatedF0 returns an analytic frequency estimate used to size the
	// shooting solver's initial period guess.
	EstimatedF0() float64
	// OscillatorKey returns the cache identity: kind is a short lowercase
	// tag ("ring", ...), cfg the full configuration value
	// (fingerprinted by content; see Fingerprint for the supported kinds).
	OscillatorKey() (kind string, cfg any)
}

// DefaultCapacityBytes bounds the artifact cache when Options.CapacityBytes
// is zero: 256 MiB holds hundreds of ring-latch chains (one 1024-step,
// 3-node PSS+PPV chain is ≈ 0.3 MiB).
const DefaultCapacityBytes = 256 << 20

// Options configures an Engine.
type Options struct {
	// CapacityBytes bounds the artifact cache (approximate resident bytes).
	// 0 selects DefaultCapacityBytes; negative disables eviction.
	CapacityBytes int64
	// Workers bounds the engine's compute pool: at most this many artifact
	// computations (and batch items) run concurrently. <= 0: one per CPU.
	Workers int
	// PSS overrides the periodic-steady-state solve options used by the
	// ring pipeline. Zero fields are defaulted (StepsPerPeriod 1024); a zero
	// GuessT means "derive from the ring's analytic frequency estimate".
	// These options are part of every cache key.
	PSS pss.Options
	// Disk, when non-nil, adds a persistent second cache tier below the
	// in-memory LRU: artifacts computed by this engine are written to the
	// store (atomically, content-checksummed), and a memory miss consults
	// the store before computing. Because files are named by the same
	// content fingerprints as the memory keys, a warm cache survives
	// restarts and one directory can be shared between replicas. Disk I/O
	// failures and corrupt files are never fatal — they degrade to a
	// recompute and are counted in Stats/diag.
	Disk *DiskStore
}

// Stats is a point-in-time snapshot of the engine's cache behaviour.
type Stats struct {
	Hits      int64 // requests served from the cache
	Misses    int64 // requests that started a computation
	Coalesced int64 // requests that joined an in-flight computation
	Evictions int64 // artifacts evicted by the LRU
	Entries   int   // resident artifacts
	Bytes     int64 // approximate resident bytes

	// Disk-tier counters (all zero when the engine has no DiskStore).
	DiskHits    int64 // computations short-circuited by a verified disk read
	DiskMisses  int64 // disk lookups that found no artifact file
	DiskRejects int64 // disk artifacts rejected as corrupt/stale (recomputed)
	DiskWrites  int64 // artifacts persisted to the store
}

// Engine is a concurrency-safe memoizing analysis engine. The zero value is
// not usable; construct with New. All methods may be called from any number
// of goroutines.
type Engine struct {
	workers int
	pssOpt  pss.Options
	disk    *DiskStore
	sem     chan struct{}

	mu      sync.Mutex
	cache   *lruCache
	flights map[string]*flight

	hits, misses, coalesced, evictions            atomic.Int64
	diskHits, diskMisses, diskRejects, diskWrites atomic.Int64
}

// New returns an empty engine.
func New(opt Options) *Engine {
	capacity := opt.CapacityBytes
	if capacity == 0 {
		capacity = DefaultCapacityBytes
	}
	pssOpt := opt.PSS
	if pssOpt.StepsPerPeriod == 0 {
		pssOpt.StepsPerPeriod = 1024
	}
	w := parallel.Workers(opt.Workers)
	return &Engine{
		workers: w,
		pssOpt:  pssOpt,
		disk:    opt.Disk,
		sem:     make(chan struct{}, w),
		cache:   newLRU(capacity),
		flights: map[string]*flight{},
	}
}

// Stats snapshots the cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries, bytes := e.cache.len(), e.cache.bytes
	e.mu.Unlock()
	return Stats{
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Coalesced:   e.coalesced.Load(),
		Evictions:   e.evictions.Load(),
		Entries:     entries,
		Bytes:       bytes,
		DiskHits:    e.diskHits.Load(),
		DiskMisses:  e.diskMisses.Load(),
		DiskRejects: e.diskRejects.Load(),
		DiskWrites:  e.diskWrites.Load(),
	}
}

// Workers reports the engine's resolved compute-pool bound.
func (e *Engine) Workers() int { return e.workers }

// pssArtifact is a cached oscillator + its converged periodic steady state.
type pssArtifact struct {
	osc Oscillator
	sol *pss.Solution
}

// ppvArtifact additionally carries the extracted phase macromodel.
type ppvArtifact struct {
	osc Oscillator
	sol *pss.Solution
	p   *ppv.PPV
}

// keys derives both stages' cache keys from one content hash of
// (oscillator kind, oscillator config, the engine's PSS options): the keys
// differ only in their stage prefix. The kind tag is part of the hash —
// never a path segment — so keys keep the two-part <stage>/<hex> shape the
// DiskStore requires.
func (e *Engine) keys(kind string, cfg any) (pssKey, ppvKey string) {
	sum := fingerprint(kind, cfg, e.pssOpt)
	var key [len("pss/") + 2*sha256.Size]byte
	hex.Encode(key[len("pss/"):], sum[:])
	copy(key[:], "pss/")
	pssKey = string(key[:])
	copy(key[:], "ppv/")
	return pssKey, string(key[:])
}

// pssArtifactFor is the shared PSS pipeline: memoized under key, building
// the oscillator lazily inside the flight (a warm hit never constructs a
// circuit — it stays a fingerprint plus a map lookup).
func (e *Engine) pssArtifactFor(ctx context.Context, key string, build func() (Oscillator, error)) (*pssArtifact, error) {
	v, err := e.do(ctx, key, func(cctx context.Context) (any, int64, error) {
		osc, err := build()
		if err != nil {
			return nil, 0, err
		}
		// Disk tier: a verified artifact file short-circuits the solve —
		// only the (cheap) circuit build above runs. Rebuilding the
		// oscillator instead of persisting it keeps the file purely numeric.
		if payload, ok := e.diskLoad(cctx, key); ok {
			if sol, err := decodeSolution(payload); err == nil {
				return &pssArtifact{osc: osc, sol: sol}, solutionBytes(sol), nil
			}
			e.diskReject(cctx)
		}
		sol, err := ColdPSS(cctx, osc, e.pssOpt)
		if err != nil {
			return nil, 0, err
		}
		e.diskStore(cctx, key, encodeSolution(sol))
		return &pssArtifact{osc: osc, sol: sol}, solutionBytes(sol), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*pssArtifact), nil
}

// ppvArtifactFor nests the PSS stage (itself cached) and extracts the PPV.
func (e *Engine) ppvArtifactFor(ctx context.Context, pssKey, ppvKey string, build func() (Oscillator, error)) (*ppvArtifact, error) {
	v, err := e.do(ctx, ppvKey, func(cctx context.Context) (any, int64, error) {
		pa, err := e.pssArtifactFor(cctx, pssKey, build)
		if err != nil {
			return nil, 0, err
		}
		osc, sol := pa.osc, pa.sol
		// Disk tier: the file stores only the PPV-specific arrays; the
		// decoded PPV is reattached to the cached PSS solution, preserving
		// the one-Solution-shared-by-both-entries structure of the memory
		// tier.
		if payload, ok := e.diskLoad(cctx, ppvKey); ok {
			if p, err := decodePPV(payload, sol); err == nil {
				return &ppvArtifact{osc: osc, sol: sol, p: p}, ppvBytes(p), nil
			}
			e.diskReject(cctx)
		}
		p, err := ColdPPV(cctx, osc, sol)
		if err != nil {
			return nil, 0, err
		}
		e.diskStore(cctx, ppvKey, encodePPV(p))
		// The PPV references the PSS artifact's grid and solution; only the
		// PPV-specific storage is charged to this entry.
		return &ppvArtifact{osc: osc, sol: sol, p: p}, ppvBytes(p), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ppvArtifact), nil
}

// PSS computes (or recalls) the periodic steady state of any Oscillator,
// memoized under the content hash of (its OscillatorKey, the engine's PSS
// options). The artifact cache retains the oscillator instance alongside
// the solution; a later identical-key request returns the cached solution
// regardless of which instance asked.
func (e *Engine) PSS(ctx context.Context, osc Oscillator) (*pss.Solution, error) {
	pssKey, _ := e.keys(osc.OscillatorKey())
	a, err := e.pssArtifactFor(ctx, pssKey, func() (Oscillator, error) { return osc, nil })
	if err != nil {
		return nil, err
	}
	return a.sol, nil
}

// PPV is the memoized pipeline PSS (shooting) → PPV (time-domain adjoint)
// for any Oscillator; the PSS stage is itself cached and shared with PSS
// requests for the same key.
func (e *Engine) PPV(ctx context.Context, osc Oscillator) (*pss.Solution, *ppv.PPV, error) {
	pssKey, ppvKey := e.keys(osc.OscillatorKey())
	a, err := e.ppvArtifactFor(ctx, pssKey, ppvKey, func() (Oscillator, error) { return osc, nil })
	if err != nil {
		return nil, nil, err
	}
	return a.sol, a.p, nil
}

// RingPSS builds the ring for cfg and computes its periodic steady state by
// shooting, memoized like PSS (a ring built here and a *ringosc.Ring passed
// to PSS share one artifact when their configs match).
func (e *Engine) RingPSS(ctx context.Context, cfg ringosc.Config) (*ringosc.Ring, *pss.Solution, error) {
	pssKey, _ := e.keys("ring", cfg)
	a, err := e.pssArtifactFor(ctx, pssKey, func() (Oscillator, error) { return ringosc.Build(cfg) })
	if err != nil {
		return nil, nil, err
	}
	return a.osc.(*ringosc.Ring), a.sol, nil
}

// RingPPV is the memoized one-call pipeline: build → PSS (shooting) → PPV
// (time-domain adjoint). The PSS stage is itself cached, so a PPV request
// reuses an existing steady state and vice versa. Repeated calls with an
// identical cfg return the same shared artifact at near-zero cost.
func (e *Engine) RingPPV(ctx context.Context, cfg ringosc.Config) (*ringosc.Ring, *pss.Solution, *ppv.PPV, error) {
	pssKey, ppvKey := e.keys("ring", cfg)
	a, err := e.ppvArtifactFor(ctx, pssKey, ppvKey, func() (Oscillator, error) { return ringosc.Build(cfg) })
	if err != nil {
		return nil, nil, nil, err
	}
	return a.osc.(*ringosc.Ring), a.sol, a.p, nil
}

// GAESweepRequest asks for a SYNC-amplitude locking sweep (the Fig. 7
// machinery) on the ring described by Config. The expensive PSS→PPV chain is
// resolved through the cache, so a batch over one ring family costs one
// extraction regardless of batch size.
type GAESweepRequest struct {
	Config ringosc.Config
	// F1 is the reference frequency; 0 means the ring's own f0.
	F1 float64
	// Injections are held fixed in the model (e.g. a calibrated SYNC or a
	// logic input); the swept injection is described below.
	Injections []gae.Injection
	// SyncNode/SyncHarm describe the swept SYNC injection.
	SyncNode, SyncHarm int
	// Amps are the swept SYNC amplitudes.
	Amps []float64
}

// GAESweepResult is one request's outcome.
type GAESweepResult struct {
	F0     float64 // the ring's free-running frequency
	Points []gae.LockPoint
}

// GAESweepBatch resolves every request's PPV through the cache (duplicate
// configs coalesce into one computation) and runs the locking sweeps on the
// engine's worker pool. Results are ordered as requested and bit-identical
// at any worker count.
func (e *Engine) GAESweepBatch(ctx context.Context, reqs []GAESweepRequest) ([]GAESweepResult, error) {
	defer diag.SpanFrom(ctx, "engine.gae_batch").End()
	return parallel.MapWorkerCtx(ctx, len(reqs), e.workers, func(wctx context.Context, _, i int) (GAESweepResult, error) {
		req := reqs[i]
		_, sol, p, err := e.RingPPV(wctx, req.Config)
		if err != nil {
			return GAESweepResult{}, err
		}
		f1 := req.F1
		if f1 == 0 {
			f1 = sol.F0
		}
		m := gae.NewModel(p, f1, req.Injections...)
		pts, err := m.SweepSyncAmplitudeCtx(wctx, req.SyncNode, req.SyncHarm, req.Amps, 1)
		if err != nil {
			return GAESweepResult{}, err
		}
		return GAESweepResult{F0: sol.F0, Points: pts}, nil
	})
}

// --- disk tier plumbing ---

// diskLoad fetches a verified payload for key from the disk tier. A missing
// file counts as a disk miss; a corrupt one counts as a reject. Both return
// ok=false, degrading to a recompute.
func (e *Engine) diskLoad(ctx context.Context, key string) (payload []byte, ok bool) {
	if e.disk == nil {
		return nil, false
	}
	dm := diag.FromContext(ctx)
	payload, err := e.disk.Get(key)
	switch {
	case err == nil:
		e.diskHits.Add(1)
		dm.Inc(diag.EngineDiskHits)
		return payload, true
	case errors.Is(err, fs.ErrNotExist):
		e.diskMisses.Add(1)
		dm.Inc(diag.EngineDiskMisses)
	default:
		e.diskRejects.Add(1)
		dm.Inc(diag.EngineDiskRejects)
	}
	return nil, false
}

// diskReject records a payload that passed the container checksum but
// failed the schema decode; the caller recomputes (and overwrites).
func (e *Engine) diskReject(ctx context.Context) {
	e.diskRejects.Add(1)
	diag.FromContext(ctx).Inc(diag.EngineDiskRejects)
}

// diskStore persists a freshly computed artifact. Failures are deliberately
// swallowed: the disk tier is an accelerator, never a correctness
// dependency, and the artifact is already resident in memory.
func (e *Engine) diskStore(ctx context.Context, key string, payload []byte) {
	if e.disk == nil {
		return
	}
	if err := e.disk.Put(key, payload); err == nil {
		e.diskWrites.Add(1)
		diag.FromContext(ctx).Inc(diag.EngineDiskWrites)
	}
}

// --- artifact size accounting (approximate resident bytes) ---

func vecSliceBytes(vs []linalg.Vec) int64 {
	n := int64(0)
	for _, v := range vs {
		n += 24 + 8*int64(len(v))
	}
	return n
}

func matBytes(m *linalg.Mat) int64 {
	if m == nil {
		return 0
	}
	return 32 + 8*int64(len(m.Data))
}

// solutionBytes estimates the resident size of a PSS solution: the state
// grid dominates ((K+1)·N floats), plus the monodromy and bookkeeping.
func solutionBytes(s *pss.Solution) int64 {
	n := int64(128) // struct header + scalars
	n += 24 + 8*int64(len(s.Grid))
	n += 24 + 8*int64(len(s.X0))
	n += vecSliceBytes(s.States)
	n += matBytes(s.Monodromy)
	n += 24 + 16*int64(len(s.Multipliers))
	return n
}

// ppvBytes estimates the PPV-specific storage: the sampled VI grid and the
// per-node Fourier series. The referenced PSS solution is accounted by its
// own cache entry.
func ppvBytes(p *ppv.PPV) int64 {
	n := int64(128)
	n += vecSliceBytes(p.VI)
	for _, s := range p.NodeSeries {
		if s != nil {
			n += 48 + 16*int64(len(s.Coef))
		}
	}
	return n
}
