package serve

import (
	"context"
	"encoding/json"
	"math"
	"math/cmplx"
	"net/http"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// cold reports whether this request's own metrics saw an engine miss —
// i.e. the request triggered the computation instead of riding the cache
// (coalesced joiners and hits are "warm": they did no solver work).
func cold(ctx context.Context) bool {
	return diag.FromContext(ctx).Get(diag.EngineMisses) > 0
}

func (s *Server) handlePSS(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req PSSRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	cfg, err := req.Ring.Config()
	if err != nil {
		return err
	}
	_, sol, err := s.eng.RingPSS(ctx, cfg)
	if err != nil {
		return err
	}
	resp := PSSResponse{
		F0:         sol.F0,
		T0:         sol.T0,
		Residual:   sol.Residual,
		Iterations: sol.Iterations,
		Nodes:      len(sol.X0),
		Cold:       cold(ctx),
	}
	resp.Multipliers = make([][2]float64, len(sol.Multipliers))
	for i, m := range sol.Multipliers {
		resp.Multipliers[i] = [2]float64{real(m), imag(m)}
	}
	_, _, resp.Stable = sol.StabilityReport()
	return writeJSON(w, resp)
}

func (s *Server) handlePPV(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req PPVRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	cfg, err := req.Ring.Config()
	if err != nil {
		return err
	}
	harm := req.Harmonics
	if harm <= 0 {
		harm = 8
	}
	if harm > ppv.MaxHarmonics {
		harm = ppv.MaxHarmonics
	}
	_, _, p, err := s.eng.RingPPV(ctx, cfg)
	if err != nil {
		return err
	}
	resp := PPVResponse{F0: p.F0, T0: p.T0, NormError: p.NormError, Cold: cold(ctx)}
	resp.Nodes = make([][]PPVHarmonic, len(p.NodeSeries))
	for n := range p.NodeSeries {
		hs := make([]PPVHarmonic, 0, harm)
		for h := 1; h <= harm; h++ {
			c := p.Harmonic(n, h)
			hs = append(hs, PPVHarmonic{
				Harmonic:  h,
				Magnitude: cmplx.Abs(c),
				Phase:     cmplx.Phase(c) / (2 * math.Pi),
			})
		}
		resp.Nodes[n] = hs
	}
	return writeJSON(w, resp)
}

func (s *Server) handleSweep(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	cfg, err := req.Ring.Config()
	if err != nil {
		return err
	}
	if len(req.Amps) == 0 {
		return badRequestf("amps_a: at least one sweep amplitude required")
	}
	if len(req.Amps) > maxSweepAmps {
		return badRequestf("amps_a: %d amplitudes exceeds the limit of %d", len(req.Amps), maxSweepAmps)
	}
	for i, a := range req.Amps {
		if a <= 0 {
			return badRequestf("amps_a[%d] = %g: amplitudes must be > 0", i, a)
		}
	}
	if req.SyncHarm < 1 {
		return badRequestf("sync_harm %d: want ≥ 1", req.SyncHarm)
	}
	if req.SyncNode < 0 || req.SyncNode >= cfg.Stages {
		return badRequestf("sync_node %d: ring has nodes 0..%d", req.SyncNode, cfg.Stages-1)
	}
	res, err := s.eng.GAESweepBatch(ctx, []engine.GAESweepRequest{{
		Config:     cfg,
		F1:         req.F1,
		Injections: req.injections(),
		SyncNode:   req.SyncNode,
		SyncHarm:   req.SyncHarm,
		Amps:       req.Amps,
	}})
	if err != nil {
		return err
	}
	resp := SweepResponse{F0: res[0].F0, Cold: cold(ctx)}
	resp.Points = make([]SweepPoint, len(res[0].Points))
	for i, pt := range res[0].Points {
		resp.Points[i] = SweepPoint{Amp: pt.Amp, F1Lo: pt.F1Lo, F1Hi: pt.F1Hi, Locks: pt.Locks}
	}
	return writeJSON(w, resp)
}

// transientOptions validates and resolves the request's integration plan.
func (req *TransientRequest) transientOptions() (cycles float64, stepsPerCycle int, opt transient.Options, err error) {
	cycles = req.Cycles
	if cycles == 0 {
		cycles = 3
	}
	if cycles < 0 || cycles > maxCycles {
		return 0, 0, opt, badRequestf("cycles %g: want 0 < cycles ≤ %d", cycles, maxCycles)
	}
	stepsPerCycle = req.StepsPerCycle
	if stepsPerCycle == 0 {
		stepsPerCycle = 256
	}
	if stepsPerCycle < 8 || stepsPerCycle > maxStepsPerCycle {
		return 0, 0, opt, badRequestf("steps_per_cycle %d: want 8 ≤ steps ≤ %d", stepsPerCycle, maxStepsPerCycle)
	}
	switch req.Method {
	case "", "theta":
		// transient's default θ (trapezoidal) method.
	case "gear2":
		opt.Method = transient.Gear2
	default:
		return 0, 0, opt, badRequestf("method %q: want \"theta\" or \"gear2\"", req.Method)
	}
	opt.Adaptive = req.Adaptive
	if req.Record < 0 {
		return 0, 0, opt, badRequestf("record %d: want ≥ 0", req.Record)
	}
	opt.Record = req.Record
	steps := math.Ceil(cycles * float64(stepsPerCycle))
	if steps > maxTransientSteps {
		return 0, 0, opt, badRequestf("cycles × steps_per_cycle = %.0f steps: want ≤ %d", steps, maxTransientSteps)
	}
	if points := math.Ceil(steps/float64(max(req.Record, 1))) + 1; points > maxTransientPoints {
		return 0, 0, opt, badRequestf("%.0f recorded points: want ≤ %d (raise record)", points, maxTransientPoints)
	}
	return cycles, stepsPerCycle, opt, nil
}

func (s *Server) handleTransient(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req TransientRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	cfg, err := req.Ring.Config()
	if err != nil {
		return err
	}
	cycles, stepsPerCycle, opt, err := req.transientOptions()
	if err != nil {
		return err
	}
	// The transient itself is not memoized (every run is caller-specific
	// work); it still rides the admission limit and request deadline.
	ring, err := ringosc.Build(cfg)
	if err != nil {
		return err
	}
	tEst := 1 / ring.EstimatedF0()
	opt.Step = tEst / float64(stepsPerCycle)
	res, err := transient.RunCtx(ctx, ring.Sys, ring.KickStart(), 0, cycles*tEst, opt)
	if err != nil {
		return err
	}
	if !req.Stream {
		resp := TransientResponse{T: res.T, Steps: res.Steps, Rejected: res.Rejected}
		resp.X = make([][]float64, len(res.X))
		for i, x := range res.X {
			resp.X[i] = x
		}
		return writeJSON(w, resp)
	}
	return streamTransient(w, res)
}

// logicPlan validates the run-mode fields of a logic request and resolves
// them into a macromodel lowering config plus the chosen mode.
func (req *LogicRunRequest) logicPlan(n *phlogic.Netlist) (cfg phlogic.MacroConfig, nBits int, err error) {
	wordMode := len(req.Word) > 0
	streamMode := len(req.Streams) > 0
	if wordMode == streamMode {
		return cfg, 0, badRequestf("exactly one of word or streams must be set")
	}
	if req.SettleCycles < 0 || req.SettleCycles > maxLogicCycles {
		return cfg, 0, badRequestf("settle_cycles %d: want 0 ≤ cycles ≤ %d", req.SettleCycles, maxLogicCycles)
	}
	cfg = phlogic.MacroConfig{
		InputOscillators: req.InputOscillators,
		SettleCycles:     float64(req.SettleCycles),
	}
	if wordMode {
		if len(req.Word) != len(n.Inputs) {
			return cfg, 0, badRequestf("word: %d bits for %d netlist inputs", len(req.Word), len(n.Inputs))
		}
		return cfg, 0, nil
	}
	if req.InputOscillators {
		return cfg, 0, badRequestf("input_oscillators: word mode only")
	}
	if len(req.Streams) != len(n.Inputs) {
		return cfg, 0, badRequestf("streams: %d streams for %d netlist inputs", len(req.Streams), len(n.Inputs))
	}
	nBits = len(req.Streams[0])
	if nBits == 0 || nBits > maxLogicStreamBits {
		return cfg, 0, badRequestf("streams: %d bits per stream, want 1 ≤ bits ≤ %d", nBits, maxLogicStreamBits)
	}
	for i, st := range req.Streams {
		if len(st) != nBits {
			return cfg, 0, badRequestf("streams[%d]: %d bits, want %d (all streams equal length)", i, len(st), nBits)
		}
	}
	return cfg, nBits, nil
}

func (s *Server) handleLogicRun(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req LogicRunRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	cfg, err := req.Ring.Config()
	if err != nil {
		return err
	}
	// An absent field decodes as the literal "null", not an empty message.
	if len(req.Netlist) == 0 || string(req.Netlist) == "null" {
		return badRequestf("netlist: required")
	}
	// Parse failures wrap phlogic.ErrInvalidNetlist, which classify maps to
	// 400 "invalid_netlist" — distinct from bad_request so clients can tell
	// a malformed IR document from a malformed request envelope.
	n, err := phlogic.ParseNetlistJSON(req.Netlist)
	if err != nil {
		return err
	}
	if len(n.Ops) > maxLogicOps {
		return badRequestf("netlist: %d ops exceeds the limit of %d", len(n.Ops), maxLogicOps)
	}
	mcfg, nBits, err := req.logicPlan(n)
	if err != nil {
		return err
	}
	// The latch PPV rides the engine cache; compilation and the macromodel
	// integration are per-request work (cheap once the macromodel is warm).
	_, _, p, err := s.eng.RingPPV(ctx, cfg)
	if err != nil {
		return err
	}
	m, err := phlogic.CompileMacro(n, p, p.F0, mcfg)
	if err != nil {
		return err
	}
	resp := LogicRunResponse{
		Outputs: n.Outputs,
		Latches: m.NumLatches(),
		F1:      p.F0,
		Cold:    cold(ctx),
	}
	if nBits == 0 {
		resp.Bits, _, err = m.RunWord(req.Word)
	} else {
		resp.Streams, _, err = m.RunStreams(req.Streams, nBits)
	}
	if err != nil {
		return err
	}
	return writeJSON(w, resp)
}

// streamTransient writes the trajectory as chunked NDJSON: one row per
// recorded point, flushed in batches, then a closing summary row. Long
// transients therefore arrive incrementally with bounded client-side
// buffering instead of as one monolithic JSON body.
func streamTransient(w http.ResponseWriter, res *transient.Result) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	const flushEvery = 64
	for i := range res.T {
		if err := enc.Encode(StreamRow{T: res.T[i], X: res.X[i]}); err != nil {
			return nil // client went away mid-stream; nothing left to report
		}
		if flusher != nil && i%flushEvery == flushEvery-1 {
			flusher.Flush()
		}
	}
	enc.Encode(StreamRow{Done: true, Steps: res.Steps, Rejected: res.Rejected})
	if flusher != nil {
		flusher.Flush()
	}
	return nil
}
