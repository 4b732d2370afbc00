GO ?= go

.PHONY: check fmt vet build perfbench-check test test-short race xval xval-update fuzz-smoke bench bench-baseline bench-compare bench-overhead bench-alloc bench-engine bench-sparse bench-batch bench-noise bench-serve loc

# The tier-1+ gate (see ROADMAP.md): formatting, vet, build, the pinned
# benchmark's vet and tests, the full test suite under the race detector,
# and the cross-method conformance ledger. CI and pre-commit both run this.
check: fmt vet build perfbench-check race xval

# Code size, the count ROADMAP.md's line targets use: tracked non-test Go
# lines outside perfbench/ (the pinned benchmark, a module of its own), per
# package directory and in total, then the tracked test lines in total.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs wc -l | grep -v ' total$$' \
		| awk '{ d = $$2; sub(/\/[^\/]*$$/, "", d); if (d == $$2) d = "."; n[d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2
	@git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs cat | wc -l | awk '{ printf "%7d total non-test\n", $$1 }'
	@git ls-files '*_test.go' ':!:perfbench/*' | xargs cat | wc -l | awk '{ printf "%7d total test\n", $$1 }'

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# perfbench (the pinned benchmark, see BENCHMARK.json) is a module of its
# own that replaces repro with this checkout, so the root vet/build/test
# never compile it. Vetting and testing it here keeps a library API change
# from breaking the benchmark unseen.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

test:
	$(GO) test ./...

# Fast lane: skips the slow SPICE-level tests and examples (testing.Short).
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Cross-method conformance ledger (internal/xval): all four method-pair
# families plus the golden-trace baselines, raced. Exits non-zero on drift.
xval:
	$(GO) run -race ./cmd/phlogon-xval

# Regenerate the golden fixtures from the current engines (review the diff!).
xval-update:
	$(GO) run ./cmd/phlogon-xval -update

# Fuzz smoke run: ten seconds each of FuzzParseAssembleDC, the parse →
# assemble → DC operating point path phlogon-sim runs on an untrusted deck,
# and FuzzParseNetlistJSON, the logic IR's strict parse and its JSON round
# trip. A failing input lands in the package's testdata/fuzz and replays in
# `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseAssembleDC$$' -fuzztime 10s ./internal/netlist
	$(GO) test -run '^$$' -fuzz '^FuzzParseNetlistJSON$$' -fuzztime 10s ./internal/phlogic

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Re-pin the benchmark baseline (BENCH_baseline.json). Uses -benchtime 1x
# like `make bench`, so numbers are directly comparable.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchtime 1x . | $(GO) run ./cmd/phlogon-benchdiff parse -o BENCH_baseline.json

# Compare a fresh benchmark run against the pinned baseline and report
# per-benchmark deltas (tolerance guards against CI noise).
bench-compare:
	$(GO) test -run '^$$' -bench . -benchtime 1x . | $(GO) run ./cmd/phlogon-benchdiff compare -baseline BENCH_baseline.json

# Instrumentation overhead gate: the diagnostics-disabled shooting solve must
# stay within 2% time and 0% allocs of its pinned baseline. -count repeats
# fold to the per-name minimum in benchdiff parse/compare, which suppresses
# scheduler noise enough for a 2% gate to be meaningful.
bench-overhead:
	$(GO) test -run '^$$' -bench '^BenchmarkShootAutonomousRing$$' -benchtime 20x -count 8 . \
		| $(GO) run ./cmd/phlogon-benchdiff compare -baseline BENCH_baseline.json \
			-only '^BenchmarkShootAutonomousRing$$' -tol 0.02 -alloc-tol 0

# Allocation gate: the headline hot-path benchmarks must hold the
# zero-allocation transient plumbing — allocs/op is deterministic, so its
# tolerance is essentially zero, and B/op is gated alongside it. Timing is
# not this gate's job (bench-compare covers it), hence the wide -tol.
# EffPhaseMacroFSM pins the scratch-pinned phase-macromodel integrator
# (Result arrays only — 13 allocs/op, down from 9,652). AdderEvalFJ and
# AdderIterationLU pin the SPICE-level Newton iteration's two unit costs
# (circuit evaluation, and factor+solve on the backend Auto resolves for
# the adder, sparse LU) at 0 allocs/op; each op is 1,000 calls, so a
# single-op run times milliseconds, not one cold call. Every benchmark here
# runs one untimed warm-up op first, so the pinned allocation and work
# counts do not depend on which benchmarks ran before it, and the gate runs
# at -cpu 1: on more Ps a goroutine that moves between them misses
# sync.Pool caches (fmt's printers), and the Fig rows read a few allocs more
# or less from run to run.
# EngineRingPPVCold pins the engine's cold PSS→PPV extraction, which runs
# as a one-lane batch (~590 allocs/op, down from ~8,000 on the scalar path).
# AdderEvalF (the chord iteration's f-only evaluation at its step's time)
# and AdderEvalFJBatch (8 adder corners through one batch) pin the other
# two circuit-layer unit costs at 0 allocs/op. Work counts a benchmark
# reports (EffSpiceTransientFSM's newton_iters/op, lu_factorizations/op,
# jac_evals/op and circuit_evals/op) are gated exactly: any change fails.
bench-alloc:
	$(GO) test -run '^$$' -bench '^Benchmark(EffSpiceTransientFSM|EffPhaseMacroFSM|Fig19FlipFlop|Fig20AdderStates|ShootAutonomousRing|AdderEvalFJ|AdderEvalF|AdderEvalFJBatch|AdderIterationLU|EngineRingPPVCold)$$' -benchtime 1x -count 2 -cpu 1 -benchmem . \
		| $(GO) run ./cmd/phlogon-benchdiff compare -baseline BENCH_baseline.json \
			-only '^Benchmark(EffSpiceTransientFSM|EffPhaseMacroFSM|Fig19FlipFlop|Fig20AdderStates|ShootAutonomousRing|AdderEvalFJ|AdderEvalF|AdderEvalFJBatch|AdderIterationLU|EngineRingPPVCold)$$' \
			-tol 1.0 -alloc-tol 0.05 -bytes-tol 0.25

# Sparse-backend scaling gate: the coupled-array benchmarks (transient and
# shooting at 16/64/256 rings, dense vs sparse) and the dense-against-sparse
# crossover of one iteration-matrix factor+solve (IterationLU, the
# measurement behind BackendAuto's density rule) against their pinned
# baselines. Absolute times are machine-bound, so the timing tolerance is
# wide and time is informational; the allocation columns are deterministic
# (one warm-up op per benchmark, -cpu 1 as in bench-alloc) and gate for
# real. Re-pin with `make bench-baseline` after intentional backend changes.
bench-sparse:
	$(GO) test -run '^$$' -bench '^Benchmark(SparseVsDense|IterationLU)' -benchtime 1x -cpu 1 . \
		| $(GO) run ./cmd/phlogon-benchdiff compare -baseline BENCH_baseline.json \
			-only '^Benchmark(SparseVsDense|IterationLU)' -tol 1.0 -alloc-tol 0.05 -bytes-tol 0.25

# Engine memoization gate: the cold build→PSS→PPV pipeline and the warm
# cache hit against their pinned baselines. The warm path is the one that
# must not regress — it gates the Engine's whole value proposition (a cache
# hit must stay a map lookup, not drift back toward a recompute).
bench-engine:
	$(GO) test -run '^$$' -bench '^BenchmarkEngineRingPPV(Cold|Warm)$$' -benchtime 1x -count 6 . \
		| $(GO) run ./cmd/phlogon-benchdiff compare -baseline BENCH_baseline.json \
			-only '^BenchmarkEngineRingPPV' -tol 0.5

# Batched-ensemble gate: the scalar and batched Monte-Carlo benchmarks (the
# same 16 seeded corners through both pipelines) against their pinned
# baselines — each leg's Newton iterations, LU factorizations, circuit
# evaluations and transient steps per op exactly — plus the headline claim
# — the batched path must stay at least 5x faster than the scalar one. The
# ratio is taken within one run, so machine speed cancels out of it; both
# checks read the same run's output.
bench-batch:
	$(GO) test -run '^$$' -bench '^BenchmarkVariationMC(Scalar|Batched)$$' -benchtime 1x -count 2 -benchmem . > bench-batch.tmp
	$(GO) run ./cmd/phlogon-benchdiff compare -baseline BENCH_baseline.json \
		-only '^BenchmarkVariationMC(Scalar|Batched)$$' -tol 1.0 -alloc-tol 0.05 -bytes-tol 0.25 < bench-batch.tmp
	$(GO) run ./cmd/phlogon-benchdiff ratio \
		-num BenchmarkVariationMCScalar -den BenchmarkVariationMCBatched -min 5 < bench-batch.tmp
	rm -f bench-batch.tmp

# Stochastic-ensemble gate: the 64-member BER study through the scalar
# (interpreted, trajectory-retaining) and batched (compiled SoA lanes,
# in-loop hop counting) pipelines. The same-run ratio holds the batched
# path's ≥4x headline; the compare leg additionally pins both legs' absolute
# allocation profiles against the baseline.
bench-noise:
	$(GO) test -run '^$$' -bench '^BenchmarkStochasticEnsemble(Scalar|Batched)$$' -benchtime 2x -count 2 -benchmem . > bench-noise.tmp
	$(GO) run ./cmd/phlogon-benchdiff compare -baseline BENCH_baseline.json \
		-only '^BenchmarkStochasticEnsemble(Scalar|Batched)$$' -tol 1.0 -alloc-tol 0.05 -bytes-tol 0.25 < bench-noise.tmp
	$(GO) run ./cmd/phlogon-benchdiff ratio \
		-num BenchmarkStochasticEnsembleScalar -den BenchmarkStochasticEnsembleBatched -min 4 < bench-noise.tmp
	rm -f bench-noise.tmp

# HTTP service load gate: boots the real phlogon-serve binary with a disk
# store, completes 500+ concurrent mixed cold/warm requests with zero
# errors and bounded memory, requires a 10x warm-over-cold median, and
# proves warm state survives a process restart (first repeat served from
# disk with zero Newton iterations).
bench-serve:
	PHLOGON_BENCH_SERVE=1 $(GO) test -run '^TestBenchServe$$' -v -timeout 900s ./cmd/phlogon-serve
