package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/phlogic"
	"repro/internal/serve"
)

// serve-mix: one keep-alive connection from one process, a closed loop,
// against the serve handler on a loopback listener with no disk store. A
// seeded schedule mixes warm reads, warm compute and cold writes, so the
// engine is both a read cache and a write path. A second connection would
// make every request compete with the other's for the two cores: run
// alternately on the same five seeds, two connections widened every
// timing's run-to-run spread, by 1.3 to 5.6 times.

// Request classes. Their latencies do not overlap (reads ≈ 0.2 ms, compute a
// few ms, cold writes ≈ 55 ms), so with the counts below op_p50_ms falls
// inside the read class and op_p90_ms inside the compute class.
const (
	classRead = iota + 1
	classCompute
	classCold
)

// Request kinds and how many of each a block of the schedule holds.
const (
	reqPSS = iota
	reqPPV
	reqSweep
	reqLogic
	reqTransient
	reqCold
	numKinds
)

var kindClass = [numKinds]int{classRead, classRead, classCompute, classCompute, classCompute, classCold}

var kindCount = [numKinds]int{15, 15, 6, 6, 6, 2}

// scheduleBlock is the schedule's block length, Σ kindCount.
const scheduleBlock = 50

var kindName = [numKinds]string{"pss", "ppv", "gae_sweep", "logic_run", "transient", "ppv_cold"}

const (
	serveConns = 1
	// serveCapacity is the engine cache's bytes: the hot designs plus about
	// 150 recent cold writes, which the run's cold writes fill in about 12 s,
	// so max_rss_mb reads a steady state rather than the number of cold
	// writes a run completed.
	serveCapacity = 16 << 20
	logicBits     = 4
)

var logicNetlist = phlogic.RippleCarryAdder(logicBits)

// scheduleKind is the kind of request i of connection conn. Every block of
// scheduleBlock requests holds each kind exactly kindCount times, in an
// order shuffled from the seed, so every window of whole blocks sends the
// same mix: a run's timings do not move with how many cold writes its seed
// happened to draw, and p50 and p90 sit at fixed places in the read and
// compute classes.
func scheduleKind(seed int64, conn, i int) int {
	var block [scheduleBlock]int
	n := 0
	for k, c := range kindCount {
		for ; c > 0; c-- {
			block[n] = k
			n++
		}
	}
	d := newDraws(seed, streamBlocks, conn<<24|i/scheduleBlock)
	for k := scheduleBlock - 1; k > 0; k-- {
		j := d.intn(k + 1)
		block[k], block[j] = block[j], block[k]
	}
	return block[i%scheduleBlock]
}

// ringSpec is the request spec whose resolved config is exactly d's, so
// requests for d hit the artifact set-up extracted.
func ringSpec(d design) serve.RingSpec {
	return serve.RingSpec{CLoad: d.Cfg.CLoad, NMOSMult: d.Cfg.NMOSMult}
}

func sweepRequest(spec serve.RingSpec) serve.SweepRequest {
	amps := make([]float64, 32)
	for i := range amps {
		amps[i] = 5e-6 * float64(i+1)
	}
	return serve.SweepRequest{Ring: spec, SyncNode: 0, SyncHarm: 2, Amps: amps}
}

func transientRequest(spec serve.RingSpec) serve.TransientRequest {
	return serve.TransientRequest{Ring: spec, Cycles: 8, StepsPerCycle: 128, Record: 32}
}

type serveMix struct {
	r       *run
	eng     *engine.Engine
	srvM    *diag.Metrics // the server's aggregate metrics
	setupS  diag.Snapshot // srvM after set-up
	stop    func()        // stops the server
	tr      *http.Transport
	client  *serve.Client
	netlist json.RawMessage
	f0      []float64 // per design, from set-up
}

func (w *serveMix) conns() int { return serveConns }

func (w *serveMix) close() {
	if w.stop != nil {
		w.stop()
		w.tr.CloseIdleConnections()
		w.stop = nil
	}
}

// listen serves h on a loopback port. stop closes the server and returns
// once its goroutine has exited.
func listen(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
		close(done)
	}()
	return ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// setup starts the server on an empty engine and writes every design's PPV
// through it cold.
func (w *serveMix) setup(ctx context.Context, r *run) error {
	w.r = r
	w.eng = engine.New(engine.Options{Workers: serveConns, CapacityBytes: serveCapacity})
	w.srvM = diag.FromContext(ctx)
	if w.srvM == nil {
		w.srvM = diag.New()
	}
	srv, err := serve.New(serve.Options{Engine: w.eng, Metrics: w.srvM})
	if err != nil {
		return err
	}
	addr, stop, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	w.stop = stop
	w.tr = &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns, DisableCompression: true}
	w.client = &serve.Client{BaseURL: "http://" + addr, HTTPClient: &http.Client{Transport: w.tr}, MaxAttempts: 1}
	if w.netlist, err = logicNetlist.JSON(); err != nil {
		return err
	}
	w.f0 = make([]float64, len(r.designs))
	for i, d := range r.designs {
		resp, err := w.client.PPV(ctx, serve.PPVRequest{Ring: ringSpec(d)})
		if err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
		if !resp.Cold {
			return fmt.Errorf("%s: set-up extraction was not a cache miss", d)
		}
		w.f0[i] = resp.F0
	}
	w.setupS = w.srvM.Snapshot()
	return nil
}

// op sends request i of connection conn's schedule and checks the response.
func (w *serveMix) op(ctx context.Context, conn, i int) outcome {
	dr := newDraws(w.r.seed, streamSchedule, conn<<24|i)
	kind := scheduleKind(w.r.seed, conn, i)
	di := dr.intn(len(w.r.designs))
	d := w.r.designs[di]
	out := outcome{class: kindClass[kind], what: describe("req", kindName[kind], "design", d)}
	out.err = w.request(ctx, kind, d, dr, &out)
	return out
}

func (w *serveMix) checkF0(di int, f0 float64) error {
	if f0 != w.f0[di] {
		return fmt.Errorf("f0 %v Hz differs from its set-up value %v Hz", f0, w.f0[di])
	}
	return nil
}

func (w *serveMix) request(ctx context.Context, kind int, d design, dr *draws, out *outcome) error {
	spec := ringSpec(d)
	switch kind {
	case reqPSS:
		resp, err := w.client.PSS(ctx, serve.PSSRequest{Ring: spec})
		if err != nil {
			return err
		}
		out.rec = []any{kind, d.Index, resp.F0}
		return w.checkF0(d.Index, resp.F0)
	case reqPPV:
		resp, err := w.client.PPV(ctx, serve.PPVRequest{Ring: spec})
		if err != nil {
			return err
		}
		out.rec = []any{kind, d.Index, resp.F0}
		return w.checkF0(d.Index, resp.F0)
	case reqSweep:
		req := sweepRequest(spec)
		resp, err := w.client.GAESweep(ctx, req)
		if err != nil {
			return err
		}
		if err := w.checkF0(d.Index, resp.F0); err != nil {
			return err
		}
		if len(resp.Points) != len(req.Amps) {
			return fmt.Errorf("%d sweep points for %d amplitudes", len(resp.Points), len(req.Amps))
		}
		out.rec = []any{kind, d.Index}
		prev := 0.0
		for _, p := range resp.Points {
			width := p.F1Hi - p.F1Lo
			out.rec = append(out.rec, p.Locks, width)
			if !p.Locks || !(width > prev) {
				return fmt.Errorf("locking band %g Hz at %g A does not lock or grow with amplitude", width, p.Amp)
			}
			prev = width
		}
		return nil
	case reqLogic:
		a, b := dr.intn(1<<logicBits), dr.intn(1<<logicBits)
		out.what += describe(" a", a, "b", b)
		resp, err := w.client.LogicRun(ctx, serve.LogicRunRequest{Ring: spec, Netlist: w.netlist, Word: adderWord(logicBits, a, b)})
		if err != nil {
			return err
		}
		got := wordInt(resp.Bits)
		out.rec = []any{kind, d.Index, a, b, got}
		out.latchCycles = float64(resp.Latches) * 60 // MacroConfig's default settle cycles
		if got != a+b {
			return fmt.Errorf("decoded %d, want %d", got, a+b)
		}
		return nil
	case reqTransient:
		req := transientRequest(spec)
		resp, err := w.client.Transient(ctx, req)
		if err != nil {
			return err
		}
		out.rec = []any{kind, d.Index, resp.Steps, resp.Rejected}
		if want := int(req.Cycles) * req.StepsPerCycle; resp.Steps != want || len(resp.X) == 0 {
			return fmt.Errorf("%d steps and %d samples, want %d steps", resp.Steps, len(resp.X), want)
		}
		for _, v := range resp.X[len(resp.X)-1] {
			if !(v > -1 && v < d.Cfg.Vdd+1) {
				return fmt.Errorf("final node voltage %g V outside the rails", v)
			}
		}
		return nil
	default: // reqCold
		cd := design{Index: -1, Cfg: drawRing(dr)}
		out.what = describe("req", kindName[kind], "design", cd)
		resp, err := w.client.PPV(ctx, serve.PPVRequest{Ring: ringSpec(cd)})
		if err != nil {
			return err
		}
		out.rec = []any{kind, resp.F0}
		out.corners = 1
		if !resp.Cold {
			return fmt.Errorf("never-seen design was served from the cache")
		}
		if !(math.Abs(resp.F0/w.f0[0]-1) < 0.5) {
			return fmt.Errorf("f0 %g Hz implausible for the design", resp.F0)
		}
		return nil
	}
}

func (w *serveMix) finish(context.Context, *run) {
	st := w.eng.Stats()
	fmt.Printf("engine: entries=%d bytes=%d misses=%d evictions=%d\n", st.Entries, st.Bytes, st.Misses, st.Evictions)
	for _, f0 := range w.f0 {
		w.r.digest.add("f0", f0)
	}
}

func (w *serveMix) layers(ctx context.Context, r *run, lm layerMetrics) {
	end := w.srvM.Snapshot()
	get := func(c diag.Counter) float64 { return float64(end.Counters[c.String()] - w.setupS.Counters[c.String()]) }
	r.coreLayers(lm, get, func(sample) bool { return true }, w.setupS)
	refused := 0
	for _, s := range r.samples {
		var ae *serve.APIError
		if errors.As(s.err(), &ae) && ae.Status == http.StatusServiceUnavailable {
			refused++
		}
	}
	lm.count("serve.refused_per_run", float64(refused))
	spans := map[string]spanDelta{}
	for _, p := range end.Phases {
		spans[p.Name] = spanDelta{p.WallMS, float64(p.Count)}
	}
	for _, p := range w.setupS.Phases {
		d := spans[p.Name]
		spans[p.Name] = spanDelta{d.ms - p.WallMS, d.n - float64(p.Count)}
	}
	var handlerMs, clientMs, logicReqs float64
	for k := 0; k < reqCold; k++ {
		sp := spans["serve."+kindName[k]]
		lm["serve.handler_ms."+kindName[k]] = metric{div(sp.ms, sp.n), "ms"}
		handlerMs += sp.ms
	}
	for _, s := range r.samples {
		clientMs += ms(s.lat)
		if s.latchCycles > 0 {
			logicReqs++
		}
	}
	lm["serve.http_overhead_ms"] = metric{div(clientMs-handlerMs, float64(len(r.samples))), "ms"}
	// The transients run server-side, so their busy time is the server's
	// "transient" span rather than a client timer.
	lm.ratio("transient.busy_frac", div(spans["transient"].ms, clientMs))

	r0, sol, _, err := w.eng.RingPPV(ctx, r.designs[0].Cfg)
	if err == nil {
		err = circuitUnits(lm, r0.Sys, sol.X0, sol.T0/1024)
	}
	var wc wordCost
	if err == nil {
		wc, err = commonUnits(ctx, lm, r, w.eng, logicNetlist, adderWord(logicBits, 1, 2))
	}
	r.tally.record("layer unit costs", err)
	lm.count("phasemacro.latch_steps_per_op", div(logicReqs*wc.latchSteps, float64(len(r.samples))))
	lm.count("phlogic.gate_evals_per_op", div(logicReqs*wc.gateEvals, float64(len(r.samples))))
	estimates(lm)
	lm.ratio("trace.residual_frac", 1-div(handlerMs, clientMs))
}

// spanDelta is a span's wall time and count over the measured requests.
type spanDelta struct{ ms, n float64 }
