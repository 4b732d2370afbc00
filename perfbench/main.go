// Command perfbench is the repository's pinned benchmark. It runs one
// workload from a seed for a fixed time, checks every output, and prints one
// JSON result line: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. README.md describes the workloads and metrics;
// run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload phase-logic --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/diag"
)

// setupReps is how many times a run builds its workload from an empty
// engine; setup_s is the median, and the last build is the one measured.
const setupReps = 7

// maxProcs caps GOMAXPROCS (and every connection count) at the two cores
// the benchmark was sized on.
const maxProcs = 2

// workload is one benchmark scenario.
type workload interface {
	// setup builds the workload's state from an empty engine.
	setup(ctx context.Context, r *run) error
	// conns is the number of closed-loop callers.
	conns() int
	// op runs and checks op i of caller conn.
	op(ctx context.Context, conn, i int) outcome
	// finish runs the end-of-run checks (their failures count as ops).
	finish(ctx context.Context, r *run)
	// layers adds the traced run's per-layer metrics.
	layers(ctx context.Context, r *run, lm layerMetrics)
	// close releases the state of the last setup.
	close()
}

var workloads = map[string]func() workload{
	"spice-fsm":   func() workload { return &spiceFSM{} },
	"phase-logic": func() workload { return &phaseLogic{} },
	"char-yield":  func() workload { return &charYield{} },
	"serve-mix":   func() workload { return &serveMix{} },
}

// outcome is one op's result as the harness sees it.
type outcome struct {
	err  error
	what string // the op's design and operands, for failure logs
	// class is the serve-mix request class (classRead etc.); 0 elsewhere.
	class int
	// latchCycles is the simulated latch × reference cycles of the op.
	latchCycles float64
	// corners is the number of design corners the op carried through its
	// full analysis.
	corners float64
	// rec is the op's simulated output, hashed into the run digest.
	rec []any
	// Busy times of called layers, from the benchmark's own timers.
	transientNs, mcNs, berNs float64
	// latchSteps is the op's phase-macromodel RK4 steps × latches, and
	// gateEvals its evaluations of the compiled gate network (one per RK4
	// stage).
	latchSteps, gateEvals float64
}

// sample is one op as the harness keeps it. Every op keeps its timing and
// the work it simulated; only a traced run's ops, failed ops and the ops
// that feed the digest keep their whole outcome, so the harness's memory
// stays small and max_rss_mb does not grow with the number of ops a run
// completes.
type sample struct {
	at, lat              time.Duration // op start, from the start of the measured loop; wall latency
	cpu                  time.Duration // the process's CPU time during the op
	latchCycles, corners float64       // as in outcome
	conn, i              int32
	class                int8
	traced               bool
	out                  *outcome // nil for an untraced op that passed and is not digested
}

func (s *sample) err() error {
	if s.out == nil {
		return nil
	}
	return s.out.err
}

// run is one benchmark process's state.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	designs []design
	tally   tally
	digest  *digest

	// setupM and opM collect the traced run's counters for the last set-up
	// and for the traced ops.
	setupM, opM *diag.Metrics

	samples []sample
	// keepRecs is how many leading ops of each caller keep their outcome
	// for the digest.
	keepRecs int
	// maxRSS is the process's peak resident set at the end of the measured
	// ops, in MiB.
	maxRSS float64
}

// digestOps is how many leading ops of each caller feed the digest; every
// run completes at least this many, so the digest repeats exactly.
var digestOps = map[string]int{"spice-fsm": 4, "phase-logic": 400, "char-yield": 16, "serve-mix": 100}

// opTail is the one percentile each workload reports as op_p90_ms: p90,
// except on spice-fsm, whose one-second ops give only 16–41 per run, enough
// for the median alone. A run with too few ops for its percentile fails; it
// never falls back to a lower one.
var opTail = map[string]float64{"spice-fsm": 50, "phase-logic": 90, "char-yield": 90, "serve-mix": 90}

// windowOps is the number of consecutive ops, in start order, over which
// each workload's timings are taken: every timing metric is the median of
// its values over the run's windows (the last window also takes the
// remainder, so each holds at least this many ops). A cost the program pays
// on every op shows in every window; a burst of host noise that slows a
// minority of windows leaves the median unmoved. A window holds enough ops
// for its workload's percentile: 100 for p90, a second or two of ops on
// phase-logic and serve-mix; spice-fsm's one-second ops each make a window
// of their own.
var windowOps = map[string]int{"spice-fsm": 1, "phase-logic": 400, "char-yield": 100, "serve-mix": 400}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: spice-fsm, phase-logic, char-yield or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload spice-fsm|phase-logic|char-yield|serve-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	if runtime.NumCPU() < maxProcs {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, designs: drawDesigns(*seed), digest: newDigest()}
	r.tally.seed = *seed
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	res, err := r.execute(*name, mk())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %v\n", *name, *seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *run) execute(name string, w workload) (*result, error) {
	ctx := context.Background()
	var setups, setupWall []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			w.close()
		}
		sctx := ctx
		if r.trace && rep == setupReps-1 {
			r.setupM = diag.New()
			sctx = diag.WithMetrics(ctx, r.setupM)
		}
		runtime.GC()
		c0, t0 := processCPU(), time.Now()
		if err := w.setup(sctx, r); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer w.close()
	fmt.Printf("setup_s reps=%v (CPU s), wall s %v\n", setups, setupWall)
	fmt.Print("designs:")
	for _, d := range r.designs {
		fmt.Printf(" %s", d)
	}
	fmt.Println()

	runtime.GC()
	r.opM = diag.New()
	r.keepRecs = digestOps[name]
	r.measure(ctx, w)
	w.finish(ctx, r)
	r.maxRSS = maxRSSMiB()

	nd := digestOps[name]
	done := r.digestSamples(nd)
	fmt.Printf("digest=%s over %d leading ops per caller (complete=%v)\n", r.digest.sum(), nd, done)

	// The metric stages can fail too (too few ops for a percentile, a unit
	// cost that errs), so the result's accounting is read after them.
	metrics := map[string]metric{}
	if r.trace {
		lm := layerMetrics{}
		w.layers(ctx, r, lm)
		lm["fail_frac"] = metric{r.tally.failFrac(), "ratio"}
		metrics = lm
	} else {
		r.endToEnd(metrics, median(setups), opTail[name], windowOps[name])
	}
	fmt.Printf("ops=%d attempted=%d failed=%d fail_frac=%.6g\n", len(r.samples), r.tally.attempted, r.tally.failed, r.tally.failFrac())
	return &result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   metrics,
	}, nil
}

// measure runs every caller's closed loop for the run's seconds. In a
// traced run every other op carries the op metrics; the rest run untraced
// so the tracing overhead is measured under the same host conditions.
func (r *run) measure(ctx context.Context, w workload) {
	dur := time.Duration(r.seconds * float64(time.Second))
	perConn := make([][]sample, w.conns())
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perConn {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < dur; i++ {
				traced := r.trace && i%2 == 1
				octx := ctx
				if traced {
					octx = diag.WithMetrics(ctx, r.opM)
				}
				c0, t0 := processCPU(), time.Now()
				out := w.op(octx, c, i)
				lat, cpu := time.Since(t0), processCPU()-c0
				s := sample{at: t0.Sub(start), lat: lat, cpu: cpu, latchCycles: out.latchCycles, corners: out.corners,
					conn: int32(c), i: int32(i), class: int8(out.class), traced: traced}
				if r.trace || out.err != nil || i < r.keepRecs {
					s.out = &out
				}
				perConn[c] = append(perConn[c], s)
			}
		}(c)
	}
	wg.Wait()
	for _, s := range perConn {
		r.samples = append(r.samples, s...)
	}
	for _, s := range r.samples {
		what := ""
		if s.out != nil {
			what = s.out.what
		}
		r.tally.record(fmt.Sprintf("conn=%d op=%d %s", s.conn, s.i, what), s.err())
	}
}

// digestSamples hashes the outputs of each caller's first n ops and
// reports whether every caller completed them.
func (r *run) digestSamples(n int) bool {
	var lead []sample
	conns := map[int32]int{}
	for _, s := range r.samples {
		if int(s.i) < n {
			lead = append(lead, s)
			conns[s.conn]++
		}
	}
	complete := true
	for _, k := range conns {
		complete = complete && k == n
	}
	sort.SliceStable(lead, func(a, b int) bool {
		if lead[a].conn != lead[b].conn {
			return lead[a].conn < lead[b].conn
		}
		return lead[a].i < lead[b].i
	})
	for _, s := range lead {
		fields := []any{s.conn, s.i, s.err() == nil}
		if s.out != nil {
			fields = append(fields, s.out.rec...)
		}
		r.digest.add(fields...)
	}
	return complete
}

// endToEnd fills the untraced run's metrics: each op's time is the
// process's CPU time during it, each timing is the median of its values
// over windows of winOps consecutive ops, and tailP is the percentile
// reported as op_p90_ms.
func (r *run) endToEnd(m map[string]metric, setupS, tailP float64, winOps int) {
	ordered := append([]sample(nil), r.samples...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].at < ordered[b].at })
	var p50s, tails, latchRates, cornerRates, reqRates []float64
	var tailErr error
	wins := windows(ordered, winOps)
	for k, win := range wins {
		lat := make([]float64, len(win))
		var latchCycles, latchMs, corners, cornerMs, opMs float64
		for j, s := range win {
			l := ms(s.cpu)
			lat[j] = l
			opMs += l
			if s.latchCycles > 0 {
				latchCycles += s.latchCycles
				latchMs += l
			}
			if s.corners > 0 {
				corners += s.corners
				cornerMs += l
			}
		}
		sort.Float64s(lat)
		p50, _ := percentile(lat, 50)
		tail, err := tailValue(lat, tailP)
		if err != nil && tailErr == nil {
			tailErr = fmt.Errorf("window %d: %w", k, err)
		}
		p50s, tails = append(p50s, p50), append(tails, tail)
		if latchMs > 0 {
			latchRates = append(latchRates, latchCycles/(latchMs/1e3))
		}
		if cornerMs > 0 {
			cornerRates = append(cornerRates, corners/(cornerMs/1e3))
		}
		reqRates = append(reqRates, float64(len(win))/(opMs/1e3))
	}
	r.tally.record("op_p90_ms", tailErr)
	printClasses(r.samples)
	m["setup_s"] = metric{setupS, "s"}
	m["op_p50_ms"] = metric{median(p50s), "ms"}
	m["op_p90_ms"] = metric{median(tails), "ms"}
	m["latch_cycles_per_s"] = metric{median(latchRates), "1/s"}
	m["corners_per_s"] = metric{median(cornerRates), "1/s"}
	m["req_per_s"] = metric{median(reqRates), "1/s"}
	m["max_rss_mb"] = metric{r.maxRSS, "MiB"}
	fmt.Printf("op_p50_ms=%.4g op_p90_ms=%.4g (p%g): medians over %d windows of >= %d ops, %d ops in all\n",
		m["op_p50_ms"].Value, m["op_p90_ms"].Value, tailP, len(wins), winOps, len(ordered))
	wall := make([]float64, len(ordered))
	for j, s := range ordered {
		wall[j] = ms(s.lat)
	}
	sort.Float64s(wall)
	wallP50, _ := percentile(wall, 50)
	wallTail, _ := percentile(wall, tailP)
	fmt.Printf("wall latency, whole run: p50=%.4g ms p%g=%.4g ms\n", wallP50, tailP, wallTail)
}

// printClasses reports, for a workload with request classes, each class's
// share and latency range and the class the p50 and p90 requests fall in.
func printClasses(samples []sample) {
	if len(samples) == 0 || samples[0].class == 0 {
		return
	}
	byLat := append([]sample(nil), samples...)
	sort.Slice(byLat, func(a, b int) bool { return byLat[a].cpu < byLat[b].cpu })
	lat := map[int][]float64{}
	for _, s := range byLat {
		lat[int(s.class)] = append(lat[int(s.class)], ms(s.cpu))
	}
	for c := classRead; c <= classCold; c++ {
		l := lat[c]
		if len(l) == 0 {
			continue
		}
		p10, _ := percentile(l, 10)
		p90, _ := percentile(l, 90)
		fmt.Printf("class %d: share=%.3f p10_ms=%.4g p50_ms=%.4g p90_ms=%.4g\n", c, float64(len(l))/float64(len(samples)), p10, median(l), p90)
	}
	at := func(p float64) int8 { return byLat[int(math.Ceil(p/100*float64(len(byLat))))-1].class }
	fmt.Printf("op_p50_ms falls in class %d, op_p90_ms in class %d\n", at(50), at(90))
}

// describe joins key=value pairs for failure logs.
func describe(kv ...any) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%v", kv[i], kv[i+1])
	}
	return b.String()
}
