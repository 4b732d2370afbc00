package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/phlogic"
	"repro/internal/serve"
)

func TestPercentileSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n        int
		p        float64
		want     float64
		reported bool
	}{
		{99, 90, 90, false}, // nine samples beyond: not reportable
		{100, 90, 90, true},
		{1000, 90, 900, true},
		{19, 50, 10, false},
		{20, 50, 10, true},
		{1, 50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.reported {
			t.Errorf("percentile(n=%d, p%g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.reported)
		}
	}
	// The reported percentile never changes with the sample count: too few
	// samples for p90 is an error, not a median under p90's name.
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		failed bool
	}{{99, 90, 90, true}, {100, 90, 90, false}, {5, 50, 3, false}, {25, 50, 13, false}, {0, 90, 0, true}} {
		got, err := tailValue(seq(tc.n), tc.p)
		if got != tc.want || (err != nil) != tc.failed {
			t.Errorf("tailValue(n=%d, p%g) = %g, %v; want %g, failed=%v", tc.n, tc.p, got, err, tc.want, tc.failed)
		}
	}
}

// TestTooFewOpsForTheTailFails checks that a run whose op count cannot
// support its workload's tail percentile counts one failure and keeps
// reporting that percentile.
func TestTooFewOpsForTheTailFails(t *testing.T) {
	for _, tc := range []struct {
		ops    int
		tailP  float64
		failed int
	}{{99, 90, 1}, {100, 90, 0}, {12, 50, 0}} {
		r := &run{}
		for i := 0; i < tc.ops; i++ {
			r.samples = append(r.samples, sample{i: int32(i), cpu: time.Duration(i+1) * time.Millisecond})
		}
		m := map[string]metric{}
		r.endToEnd(m, 1, tc.tailP, tc.ops) // one window of every op
		if r.tally.failed != tc.failed || r.tally.attempted != 1 {
			t.Errorf("%d ops at p%g: %d/%d failed, want %d/1", tc.ops, tc.tailP, r.tally.failed, r.tally.attempted, tc.failed)
		}
		want := float64(int(math.Ceil(tc.tailP / 100 * float64(tc.ops))))
		if got := m["op_p90_ms"].Value; got != want {
			t.Errorf("%d ops at p%g: op_p90_ms %g, want %g", tc.ops, tc.tailP, got, want)
		}
	}
}

func TestWindowsKeepAtLeastTheirSize(t *testing.T) {
	for _, tc := range []struct {
		samples, n int
		want       []int
	}{{250, 100, []int{100, 150}}, {310, 100, []int{100, 100, 110}}, {99, 100, []int{99}}, {3, 1, []int{1, 1, 1}}, {0, 5, nil}} {
		var got []int
		for _, w := range windows(make([]sample, tc.samples), tc.n) {
			got = append(got, len(w))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("windows(%d samples, %d) sizes %v, want %v", tc.samples, tc.n, got, tc.want)
		}
	}
}

// TestWindowedTimingsIgnoreMinorityBursts checks that a burst of host noise
// that slows a minority of windows leaves every windowed timing unmoved,
// while a cost paid in every window moves the tail.
func TestWindowedTimingsIgnoreMinorityBursts(t *testing.T) {
	timings := func(slow func(win, j int) bool) map[string]metric {
		r := &run{}
		var at time.Duration
		for i := 0; i < 1050; i++ { // ten windows of 100 ops, the last with 150
			lat := time.Millisecond + time.Duration(i%100)*time.Microsecond
			if slow(i/100, i%100) {
				lat *= 4
			}
			r.samples = append(r.samples, sample{i: int32(i), at: at, cpu: lat, latchCycles: 600, corners: 1})
			at += lat
		}
		m := map[string]metric{}
		r.endToEnd(m, 1, 90, 100)
		if r.tally.failed != 0 {
			t.Fatalf("%d failures", r.tally.failed)
		}
		return m
	}
	clean := timings(func(int, int) bool { return false })
	burst := timings(func(win, _ int) bool { return win == 2 || win == 5 || win == 7 })
	for _, name := range []string{"op_p50_ms", "op_p90_ms", "latch_cycles_per_s", "corners_per_s", "req_per_s"} {
		if burst[name] != clean[name] {
			t.Errorf("%s: %g with three of ten windows slowed, %g without", name, burst[name].Value, clean[name].Value)
		}
	}
	if want := 1.089; math.Abs(clean["op_p90_ms"].Value-want) > 1e-9 {
		t.Errorf("op_p90_ms %g, want %g", clean["op_p90_ms"].Value, want)
	}
	every := timings(func(_, j int) bool { return j >= 80 })
	if !(every["op_p90_ms"].Value > 2*clean["op_p90_ms"].Value) {
		t.Errorf("op_p90_ms %g with a slow fifth in every window, %g without", every["op_p90_ms"].Value, clean["op_p90_ms"].Value)
	}
}

// TestProcessCPUCountsWorkNotWaiting checks the clock behind every timing:
// it advances while the process works and stands still while it sleeps.
func TestProcessCPUCountsWorkNotWaiting(t *testing.T) {
	c0 := processCPU()
	time.Sleep(50 * time.Millisecond)
	if d := processCPU() - c0; d > 10*time.Millisecond {
		t.Errorf("a 50 ms sleep used %v of CPU time", d)
	}
	c0 = processCPU()
	for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; {
	}
	if d := processCPU() - c0; d < 10*time.Millisecond {
		t.Errorf("50 ms of spinning used %v of CPU time", d)
	}
}

// fakeWorkload fails ops by a fixed rule, fails its traced-run unit costs
// with layersErr, and runs no numerics.
type fakeWorkload struct {
	errFor    func(i int) error
	layersErr error
}

func (f *fakeWorkload) setup(context.Context, *run) error { return nil }
func (f *fakeWorkload) conns() int                        { return 2 }
func (f *fakeWorkload) op(_ context.Context, _, i int) outcome {
	return outcome{err: f.errFor(i), what: fmt.Sprintf("op %d", i)}
}
func (f *fakeWorkload) finish(context.Context, *run) {}
func (f *fakeWorkload) layers(_ context.Context, r *run, _ layerMetrics) {
	r.tally.record("layer unit costs", f.layersErr)
}
func (f *fakeWorkload) close() {}

func TestFailAccountingCountsEveryFailure(t *testing.T) {
	kinds := []error{
		nil,
		errors.New("solver: no convergence"),
		fmt.Errorf("%w: output s0", phlogic.ErrUndecodable),
		serve.DecodeError(http.StatusServiceUnavailable, nil),
		serve.DecodeError(http.StatusUnprocessableEntity, nil),
		fmt.Errorf("decoded 7, want 9"),
	}
	w := &fakeWorkload{errFor: func(i int) error { return kinds[i%len(kinds)] }}
	r := &run{seconds: 0.02, digest: newDigest()}
	r.measure(context.Background(), w)
	wantFailed := 0
	for _, s := range r.samples {
		if s.err() != nil {
			wantFailed++
		}
	}
	if r.tally.attempted != len(r.samples) || r.tally.failed != wantFailed {
		t.Fatalf("tally %d/%d, samples %d with %d errors", r.tally.failed, r.tally.attempted, len(r.samples), wantFailed)
	}
	if len(r.samples) < len(kinds) {
		t.Fatalf("only %d ops ran", len(r.samples))
	}
	if got, want := r.tally.failFrac(), float64(wantFailed)/float64(len(r.samples)); got != want {
		t.Errorf("fail_frac %g, want %g", got, want)
	}
}

// TestResultCountsTracedStageFailures checks that a failure in the traced
// run's unit-cost stage reaches the result line.
func TestResultCountsTracedStageFailures(t *testing.T) {
	w := &fakeWorkload{errFor: func(int) error { return nil }, layersErr: errors.New("LU: singular matrix")}
	r := &run{seconds: 0.02, trace: true, digest: newDigest()}
	res, err := r.execute("fake", w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != len(r.samples)+1 {
		t.Errorf("result correct=%v failed=%d attempted=%d after %d clean ops and a failed unit-cost stage",
			res.Correct, res.Failed, res.Attempted, len(r.samples))
	}
	if got := res.Metrics["fail_frac"].Value; got != 1/float64(res.Attempted) {
		t.Errorf("fail_frac %g, want 1/%d", got, res.Attempted)
	}
}

// TestServeNon2xxIsAFailure sends serve-mix requests to a server that
// answers every request with a non-2xx status.
func TestServeNon2xxIsAFailure(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusInternalServerError, http.StatusBadRequest} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(status)
		}))
		r := &run{seed: 3, designs: drawDesigns(3)}
		w := &serveMix{r: r, client: &serve.Client{BaseURL: hs.URL, MaxAttempts: 1}, f0: make([]float64, numDesigns)}
		for i := 0; i < 50; i++ {
			out := w.op(context.Background(), 0, i)
			var ae *serve.APIError
			if !errors.As(out.err, &ae) || ae.Status != status {
				t.Fatalf("status %d: op %d returned %v", status, i, out.err)
			}
		}
		hs.Close()
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b := drawDesigns(7), drawDesigns(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("design set differs between two draws of one seed")
	}
	if reflect.DeepEqual(a, drawDesigns(8)) {
		t.Fatal("seeds 7 and 8 drew the same design set")
	}
	for _, d := range a {
		if math.Abs(d.Cfg.CLoad/4.7e-9-1) > spread || math.Abs(d.Cfg.NMOSMult-1) > spread {
			t.Errorf("%s outside ±%g of the paper's ring", d, spread)
		}
	}
	for i := 0; i < 100; i++ {
		if drawOp(7, i, 8) != drawOp(7, i, 8) {
			t.Fatalf("op %d inputs differ between two draws", i)
		}
		k1, k2 := scheduleKind(7, 0, i), scheduleKind(7, 0, i)
		if k1 != k2 {
			t.Fatalf("schedule entry %d differs between two draws", i)
		}
	}
}

// TestScheduleBlocksHoldExactCounts checks that every block of the
// serve-mix schedule holds each request kind exactly its count, in an order
// that changes from block to block.
func TestScheduleBlocksHoldExactCounts(t *testing.T) {
	orders := map[string]bool{}
	for b := 0; b < 20; b++ {
		var got [numKinds]int
		order := ""
		for j := 0; j < scheduleBlock; j++ {
			k := scheduleKind(11, 0, b*scheduleBlock+j)
			got[k]++
			order += fmt.Sprint(k)
		}
		if got != kindCount {
			t.Errorf("block %d holds %v, want %v", b, got, kindCount)
		}
		orders[order] = true
	}
	if len(orders) != 20 {
		t.Errorf("%d distinct orders in 20 blocks", len(orders))
	}
}

// TestServeSharesPlacePercentilesInsideClasses checks that, with the
// shipped shares and any latencies ordered read < compute < cold, p50 falls
// in the read class and p90 in the compute class in every window of a drawn
// schedule, with at least five points of share between each percentile and
// a class boundary.
func TestServeSharesPlacePercentilesInsideClasses(t *testing.T) {
	share := map[int]float64{}
	for k, c := range kindCount {
		share[kindClass[k]] += float64(c) / scheduleBlock
	}
	read, compute := share[classRead], share[classCompute]
	if read-0.50 < 0.05 {
		t.Errorf("p50 sits %g from the read/compute boundary", read-0.50)
	}
	if 0.90-read < 0.05 || read+compute-0.90 < 0.05 {
		t.Errorf("p90 sits within 0.05 of a compute-class boundary (read %g, compute %g)", read, compute)
	}
	// The callers' requests interleave, one from each in turn.
	var schedule []sample
	for i := 0; i < 20000; i++ {
		for conn := 0; conn < serveConns; conn++ {
			k := scheduleKind(11, conn, i)
			schedule = append(schedule, sample{conn: int32(conn), i: int32(i), class: int8(kindClass[k])})
		}
	}
	for w, win := range windows(schedule, windowOps["serve-mix"]) {
		lat := make([]float64, len(win))
		class := map[float64]int{}
		for j, s := range win {
			lat[j] = float64(s.class) + float64(j)/1e6 // distinct, ordered by class
			class[lat[j]] = int(s.class)
		}
		sort.Float64s(lat)
		p50, _ := percentile(lat, 50)
		p90, _ := percentile(lat, 90)
		if class[p50] != classRead || class[p90] != classCompute {
			t.Errorf("window %d: p50 in class %d, p90 in class %d", w, class[p50], class[p90])
		}
	}
}
