// Package diag is the numerics observability layer: near-zero-overhead
// counters and wall-time spans that answer "where does a run spend its
// effort" — Newton iterations, LU factorizations, transient step
// accept/reject ratios, raw circuit evaluations — the cost metrics the
// paper's SPICE-vs-macromodel comparison is built on.
//
// Design rules:
//
//   - A *Metrics is carried in a context.Context (WithMetrics/FromContext).
//     Engines extract it once per analysis, never per inner-loop operation.
//   - Every method is nil-safe: a nil *Metrics (diagnostics disabled, the
//     default) turns every call into a pointer test. The disabled path must
//     not allocate and is guarded by `make bench-overhead` (<2% on
//     BenchmarkShootAutonomousRing).
//   - Counters are atomic, so one Metrics may be shared across goroutines;
//     for hot fan-outs, Fork gives each worker a private child that Merge
//     folds back without contention (see parallel.ForWorkerCtx).
//   - Spans accumulate wall time per phase name ("pss.shoot",
//     "ppv.adjoint", …). Nested spans accumulate independently, so phase
//     times are a breakdown by layer, not a partition of total runtime.
package diag

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one cost metric.
type Counter int

// The counter taxonomy. Keep DESIGN.md's table in sync when extending.
const (
	// NewtonSolves counts top-level Newton solves: each stage of the DC
	// ladder, each lane's shooting solve and each HB refinement.
	NewtonSolves Counter = iota
	// NewtonIterations counts Newton iterations across every engine: DC
	// solves, transient correctors, shooting outer loops, HB refinement.
	NewtonIterations
	// NewtonBacktracks counts line-search step halvings.
	NewtonBacktracks
	// LUFactorizations counts numeric LU factorizations on either backend:
	// dense, a sparse first factorization, and a sparse refactor.
	LUFactorizations
	// LUSolves counts triangular solves against a factorization.
	LUSolves
	// TransientSteps counts accepted integration steps.
	TransientSteps
	// TransientRejections counts rejected steps (LTE or corrector failure).
	TransientRejections
	// CircuitEvals counts circuit residual evaluations f(x, t).
	CircuitEvals
	// CircuitJacEvals counts the subset of CircuitEvals that also stamped
	// the Jacobian df/dx.
	CircuitJacEvals
	// GAESteps counts accepted phase-macromodel ODE steps (averaged GAE and
	// unaveraged eq. 13 transients).
	GAESteps
	// SweepPoints counts parameter-grid evaluations (GAE sweeps, variation
	// corners, Monte-Carlo samples).
	SweepPoints
	// EnsembleRuns counts stochastic ensemble members integrated.
	EnsembleRuns
	// EngineHits counts analysis-engine artifact requests served from the
	// memoization cache (internal/engine).
	EngineHits
	// EngineMisses counts artifact requests that started a computation.
	EngineMisses
	// EngineCoalesced counts artifact requests that joined an in-flight
	// computation instead of starting their own (singleflight).
	EngineCoalesced
	// EngineEvictions counts artifacts evicted by the engine's LRU.
	EngineEvictions
	// LUFactorizationsReused counts the subset of LUFactorizations that
	// refactorized into retained buffers (FactorizeInto on a warm scratch)
	// instead of allocating fresh factor/pivot storage: a dense
	// factorization into kept buffers, or a sparse refactor.
	LUFactorizationsReused
	// ScratchBytesPinned accumulates the bytes of numeric storage that
	// solver and transient scratches keep from one run to the next: 8 per
	// float64 of their vectors, matrices and value arrays, and of the
	// factors of each factorization they keep (n² for a dense LU, nnz +
	// fill-in for a sparse one). A buffer counts when it is allocated, a
	// factorization when it is first factored, and a scratch reports each
	// byte once. Index and pivot arrays, circuit evaluation workspaces and
	// the results a run returns are not counted.
	ScratchBytesPinned
	// SparseFactorizations counts the sparse LU factorizations that sized
	// a factorization's storage from its pattern's symbolic analysis (its
	// first on that pattern). With SparseRefactors it splits the sparse
	// share of LUFactorizations.
	SparseFactorizations
	// SparseRefactors counts the sparse LU factorizations that replayed the
	// numeric phase into the factors a factorization kept (KLU-style
	// refactor — the hot path).
	SparseRefactors
	// SparseFillIns accumulates the fill-in (factor nonzeros beyond the
	// matrix pattern) of every sparse first factorization, a direct
	// measure of the ordering quality.
	SparseFillIns
	// EngineDiskHits counts artifact computations short-circuited by a
	// verified read from the engine's disk store (the persistent cache tier).
	EngineDiskHits
	// EngineDiskMisses counts disk-store lookups that found no artifact file
	// (a cold key — the computation proceeds and writes the file).
	EngineDiskMisses
	// EngineDiskRejects counts disk artifacts rejected by the integrity or
	// schema checks (truncated, corrupted, or stale format) — the engine
	// recomputes and overwrites instead of serving them.
	EngineDiskRejects
	// EngineDiskWrites counts artifacts persisted to the disk store.
	EngineDiskWrites
	// BatchEvals counts batched circuit evaluations (one EvalFJBatch call
	// over K lanes counts once; see BatchLaneEvals for the lane total).
	BatchEvals
	// BatchLaneEvals accumulates the active-lane count of every batched
	// evaluation — the batched counterpart of CircuitEvals. The ratio
	// BatchLaneEvals/BatchEvals is the realized batch occupancy.
	BatchLaneEvals
	// StochBatchSteps counts dense Euler–Maruyama sweeps of the SoA
	// stochastic stepper (noise.StochasticBatch): one per time step over the
	// batch's lanes.
	StochBatchSteps
	// StochBatchLaneSteps accumulates the lane count K of every stochastic
	// sweep — the batched counterpart of per-member step counts. Every lane
	// of a batch shares its horizon, so StochBatchLaneSteps/StochBatchSteps
	// is the mean batch width.
	StochBatchLaneSteps
	// CompiledGCompiles counts the gae.Model → gae.CompiledG compiles of
	// stochastic ensembles, one per ensemble.
	CompiledGCompiles

	numCounters
)

var counterNames = [numCounters]string{
	NewtonSolves:        "newton_solves",
	NewtonIterations:    "newton_iterations",
	NewtonBacktracks:    "newton_backtracks",
	LUFactorizations:    "lu_factorizations",
	LUSolves:            "lu_solves",
	TransientSteps:      "transient_steps",
	TransientRejections: "transient_rejections",
	CircuitEvals:        "circuit_evals",
	CircuitJacEvals:     "circuit_jac_evals",
	GAESteps:            "gae_steps",
	SweepPoints:         "sweep_points",
	EnsembleRuns:        "ensemble_runs",
	EngineHits:          "engine_hits",
	EngineMisses:        "engine_misses",
	EngineCoalesced:     "engine_coalesced",
	EngineEvictions:     "engine_evictions",

	LUFactorizationsReused: "lu_factorizations_reused",
	ScratchBytesPinned:     "scratch_bytes_pinned",
	SparseFactorizations:   "sparse_factorizations",
	SparseRefactors:        "sparse_refactors",
	SparseFillIns:          "sparse_fill_ins",
	EngineDiskHits:         "engine_disk_hits",
	EngineDiskMisses:       "engine_disk_misses",
	EngineDiskRejects:      "engine_disk_rejects",
	EngineDiskWrites:       "engine_disk_writes",
	BatchEvals:             "batch_evals",
	BatchLaneEvals:         "batch_lane_evals",
	StochBatchSteps:        "stoch_batch_steps",
	StochBatchLaneSteps:    "stoch_batch_lane_steps",
	CompiledGCompiles:      "compiled_g_compiles",
}

// String returns the stable snake_case name used in snapshots and JSON.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Counters enumerates all counters in declaration order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// phaseAgg accumulates one named span's wall time.
type phaseAgg struct {
	ns    int64
	count int64
}

// Metrics is one aggregation domain of counters and phase timers. The zero
// value is ready to use; a nil *Metrics is the disabled instrument — every
// method on it is a cheap no-op.
type Metrics struct {
	counters [numCounters]atomic.Int64

	mu     sync.Mutex
	phases map[string]*phaseAgg
}

// New returns an enabled, empty Metrics.
func New() *Metrics { return &Metrics{} }

// Inc adds 1 to a counter. Safe on nil.
func (m *Metrics) Inc(c Counter) {
	if m == nil {
		return
	}
	m.counters[c].Add(1)
}

// Add adds n to a counter. Safe on nil.
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil || n == 0 {
		return
	}
	m.counters[c].Add(n)
}

// Get reads a counter. A nil Metrics reads 0.
func (m *Metrics) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// addPhase folds d into the named phase accumulator.
func (m *Metrics) addPhase(name string, d time.Duration) {
	m.mu.Lock()
	if m.phases == nil {
		m.phases = make(map[string]*phaseAgg)
	}
	p := m.phases[name]
	if p == nil {
		p = &phaseAgg{}
		m.phases[name] = p
	}
	p.ns += int64(d)
	p.count++
	m.mu.Unlock()
}

// Span is an open wall-time measurement of one phase. The zero Span (from a
// nil Metrics) is inert.
type Span struct {
	m     *Metrics
	name  string
	start time.Time
}

// Span opens a phase span. End it exactly once; spans from a nil Metrics
// cost two words and never touch the clock.
func (m *Metrics) Span(name string) Span {
	if m == nil {
		return Span{}
	}
	return Span{m: m, name: name, start: time.Now()}
}

// End closes the span, folding its wall time into the phase accumulator.
func (s Span) End() {
	if s.m == nil {
		return
	}
	s.m.addPhase(s.name, time.Since(s.start))
}

// Fork returns n private children for contention-free per-worker
// aggregation; fold them back with Merge. A nil parent forks nil children,
// so the disabled path stays free.
func (m *Metrics) Fork(n int) []*Metrics {
	children := make([]*Metrics, n)
	if m == nil {
		return children
	}
	for i := range children {
		children[i] = New()
	}
	return children
}

// Merge adds the children's counters and phase times into m. Nil receivers
// and nil children are ignored, so Merge(Fork(n)...) is always safe.
func (m *Metrics) Merge(children ...*Metrics) {
	if m == nil {
		return
	}
	for _, c := range children {
		if c == nil || c == m {
			continue
		}
		for i := 0; i < int(numCounters); i++ {
			if v := c.counters[i].Load(); v != 0 {
				m.counters[i].Add(v)
			}
		}
		c.mu.Lock()
		m.mu.Lock()
		for name, p := range c.phases {
			if m.phases == nil {
				m.phases = make(map[string]*phaseAgg)
			}
			q := m.phases[name]
			if q == nil {
				q = &phaseAgg{}
				m.phases[name] = q
			}
			q.ns += p.ns
			q.count += p.count
		}
		m.mu.Unlock()
		c.mu.Unlock()
	}
}
