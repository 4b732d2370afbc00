package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/gae"
	"repro/internal/linalg"
	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/serve"
)

// layerMetrics is a traced run's per-layer output. Every run prints every
// name: counts read 0 on a workload that bypasses the layer, and each
// time is a unit cost measured on the workload's own state, so no time is
// a constant.
type layerMetrics map[string]metric

func (lm layerMetrics) count(name string, v float64) { lm[name] = metric{v, "count"} }
func (lm layerMetrics) ratio(name string, v float64) { lm[name] = metric{v, "ratio"} }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedOps summarizes the traced and untraced halves of a traced run.
type tracedOps struct {
	n                   float64 // traced ops
	opNs                float64 // Σ traced op latency, ns
	transientNs         float64
	mcNs, berNs         float64
	latchSteps          float64
	gateEvals           float64
	p50Traced, p50Plain float64
}

// tracedSummary sums the ops counted selects; the tracing overhead always
// compares the traced and untraced halves.
func (r *run) tracedSummary(counted func(sample) bool) tracedOps {
	var t tracedOps
	var traced, plain []float64
	for _, s := range r.samples {
		if s.traced {
			traced = append(traced, ms(s.lat))
		} else {
			plain = append(plain, ms(s.lat))
		}
		if !counted(s) {
			continue
		}
		t.n++
		t.opNs += float64(s.lat)
		if s.out == nil {
			continue
		}
		t.transientNs += s.out.transientNs
		t.mcNs += s.out.mcNs
		t.berNs += s.out.berNs
		t.latchSteps += s.out.latchSteps
		t.gateEvals += s.out.gateEvals
	}
	t.p50Traced, t.p50Plain = median(traced), median(plain)
	return t
}

// coreLayers fills the metrics read from the diag counters c of the
// counted ops and from the spans of the last set-up's cold extractions.
func (r *run) coreLayers(lm layerMetrics, c func(diag.Counter) float64, counted func(sample) bool, setup diag.Snapshot) {
	t := r.tracedSummary(counted)
	perOp := func(k diag.Counter) float64 { return div(c(k), t.n) }
	lm.count("circuit.evals_per_op", div(c(diag.CircuitEvals)+c(diag.BatchLaneEvals), t.n))
	lm.count("circuit.jac_evals_per_op", perOp(diag.CircuitJacEvals))
	lm["circuit.batch_occupancy"] = metric{div(c(diag.BatchLaneEvals), c(diag.BatchEvals)), "lanes"}
	lm.count("linalg.lu_factors_per_op", perOp(diag.LUFactorizations))
	lm.count("linalg.lu_solves_per_op", perOp(diag.LUSolves))
	lm.ratio("linalg.lu_reuse_ratio", div(c(diag.LUFactorizationsReused), c(diag.LUFactorizations)))
	lm.ratio("solver.newton_iters_per_step", div(c(diag.NewtonIterations), c(diag.TransientSteps)))
	lm.count("solver.backtracks_per_op", perOp(diag.NewtonBacktracks))
	lm.count("transient.steps_per_op", perOp(diag.TransientSteps))
	lm.count("transient.rejections_per_op", perOp(diag.TransientRejections))
	lm.ratio("transient.busy_frac", div(t.transientNs, t.opNs))
	lm.count("gae.compiles_per_op", perOp(diag.CompiledGCompiles))
	lm.count("gae.sweep_points_per_op", perOp(diag.SweepPoints))
	lm.count("noise.lane_steps_per_op", perOp(diag.StochBatchLaneSteps))
	lm["noise.lane_occupancy"] = metric{div(c(diag.StochBatchLaneSteps), c(diag.StochBatchSteps)), "lanes"}
	lm.ratio("noise.ber_frac", div(t.berNs, t.opNs))
	lm.ratio("variation.mc_frac", div(t.mcNs, t.opNs))
	lm.count("phasemacro.latch_steps_per_op", div(t.latchSteps, t.n))
	lm.count("phlogic.gate_evals_per_op", div(t.gateEvals, t.n))
	hits, misses, coal := c(diag.EngineHits), c(diag.EngineMisses), c(diag.EngineCoalesced)
	lm.ratio("engine.hit_ratio", div(hits, hits+misses+coal))
	lm.count("engine.misses_per_run", misses)
	lm.count("engine.coalesced_per_run", coal)
	lm.count("engine.evictions_per_run", c(diag.EngineEvictions))
	lm.count("serve.refused_per_run", 0)
	lm["trace.op_mean_ms"] = metric{div(t.opNs, t.n) / 1e6, "ms"}
	lm.ratio("trace.overhead_frac", div(t.p50Traced, t.p50Plain)-1)
	for _, p := range setup.Phases {
		switch p.Name {
		case "pss.shoot":
			lm["pss.shoot_ms"] = metric{div(p.WallMS, float64(p.Count)), "ms"}
		case "ppv.adjoint":
			lm["ppv.adjoint_ms"] = metric{div(p.WallMS, float64(p.Count)), "ms"}
		}
	}
}

// shootIters is the mean shooting Newton iterations of the design set's
// cached steady states.
func shootIters(ctx context.Context, eng *engine.Engine, ds []design) (float64, error) {
	var it float64
	for _, d := range ds {
		_, sol, err := eng.RingPSS(ctx, d.Cfg)
		if err != nil {
			return 0, err
		}
		it += float64(sol.Iterations)
	}
	return it / float64(len(ds)), nil
}

// estimates adds the count × unit-cost shares of op time for the leaf
// layers whose unit costs are in lm.
func estimates(lm layerMetrics) {
	opNs := lm["trace.op_mean_ms"].Value * 1e6
	lm.ratio("circuit.est_frac", div(lm["circuit.evals_per_op"].Value*lm["circuit.evalfj_ns"].Value, opNs))
	lm.ratio("linalg.est_frac", div(lm["linalg.lu_factors_per_op"].Value*lm["linalg.lu_factor_ns"].Value+
		lm["linalg.lu_solves_per_op"].Value*lm["linalg.lu_solve_ns"].Value, opNs))
	lm.ratio("phasemacro.est_frac", div(lm["phasemacro.latch_steps_per_op"].Value*lm["phasemacro.ns_per_latch_step"].Value, opNs))
	lm.ratio("phlogic.est_frac", div(lm["phlogic.gate_evals_per_op"].Value*lm["phlogic.gate_eval_ns"].Value, opNs))
}

// residual sets trace.residual_frac from the shares that partition the
// workload's op time.
func residual(lm layerMetrics, parts ...string) {
	sum := 0.0
	for _, p := range parts {
		sum += lm[p].Value
	}
	lm.ratio("trace.residual_frac", 1-sum)
}

// unitNs times fn and returns its median cost per call in ns over several
// batches of at least a millisecond each.
func unitNs(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 7)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// circuitUnits measures Workspace.EvalFJ and dense LU factor/solve on sys
// at state x, with the Newton matrix C/h + J/2 of a θ step of size h.
func circuitUnits(lm layerMetrics, sys *circuit.System, x linalg.Vec, h float64) error {
	ws := sys.NewWorkspace()
	f := linalg.NewVec(sys.N)
	j := linalg.NewMat(sys.N, sys.N)
	lm["circuit.evalfj_ns"] = metric{unitNs(func() { ws.EvalFJ(x, 0, f, j) }), "ns"}
	a := sys.C.Clone()
	a.Scale(1 / h)
	a.AddScaled(0.5, j)
	var lu linalg.LU
	var ferr error
	lm["linalg.lu_factor_ns"] = metric{unitNs(func() {
		if err := lu.FactorizeInto(a); err != nil {
			ferr = err
		}
	}), "ns"}
	if ferr != nil {
		return fmt.Errorf("LU unit cost: %w", ferr)
	}
	dst := linalg.NewVec(sys.N)
	lm["linalg.lu_solve_ns"] = metric{unitNs(func() { lu.SolveInto(dst, f) }), "ns"}
	return nil
}

// compiledGUnit measures CompiledG.EvalInto per lane over a 64-lane sweep.
func compiledGUnit(lm layerMetrics, m *gae.Model) {
	cg := m.Compile()
	const lanes = 64
	dphi := make([]float64, lanes)
	g := make([]float64, lanes)
	for i := range dphi {
		dphi[i] = float64(i) / lanes
	}
	lm["gae.compiled_g_ns_per_lane"] = metric{unitNs(func() { cg.EvalInto(dphi, g) }) / lanes, "ns"}
}

// rk4Stages is the gate-network evaluations per phase-macromodel step: the
// drive network runs once per RK4 stage.
const rk4Stages = 4

// wordCost is the phase-macromodel work of one compiled word.
type wordCost struct{ latchSteps, gateEvals float64 }

// logicUnits measures one phlogic.CompileMacro of n onto p, one evaluation
// of the compiled gate network, and the phase-macromodel integrator's cost
// per latch step. It returns the work of one word through the machine.
func logicUnits(lm layerMetrics, n *phlogic.Netlist, p *ppv.PPV, word []bool) (wordCost, error) {
	var m *phlogic.MacroMachine
	var cerr error
	compile := make([]float64, 5)
	for i := range compile {
		t0 := time.Now()
		m, cerr = phlogic.CompileMacro(n, p, p.F0, phlogic.MacroConfig{})
		compile[i] = ms(time.Since(t0))
		if cerr != nil {
			return wordCost{}, fmt.Errorf("compile unit cost: %w", cerr)
		}
	}
	lm["phlogic.compile_ms"] = metric{median(compile), "ms"}
	_, res, err := m.RunWord(word)
	if err != nil {
		return wordCost{}, fmt.Errorf("RunWord unit cost: %w", err)
	}
	wc := wordCost{latchSteps: float64(res.Steps * m.NumLatches()), gateEvals: float64(rk4Stages * res.Steps)}
	sc := m.Prog.NewScratch()
	sc.Sig[0] = m.Cal.LogicPhasor(false, m.Cfg.InputAmp) // the const rails
	sc.Sig[1] = m.Cal.LogicPhasor(true, m.Cfg.InputAmp)
	for i, net := range m.Prog.Inputs {
		sc.Sig[net] = m.Cal.LogicPhasor(word[i], m.Cfg.InputAmp)
	}
	lm["phlogic.gate_eval_ns"] = metric{unitNs(func() { m.Prog.EvalPhasors(sc, m.Cfg.GateSat, m.Cfg.GateGain) }), "ns"}
	sys, d0 := integratorSystem(m, p)
	psc := phasemacro.NewScratch(len(d0))
	var rerr error
	cost := unitNs(func() { _, rerr = sys.RunScratch(psc, d0, 0, m.Cfg.SettleCycles/m.F1, m.Cfg.DtCycles) })
	if rerr != nil {
		return wordCost{}, fmt.Errorf("phase-macromodel unit cost: %w", rerr)
	}
	lm["phasemacro.ns_per_latch_step"] = metric{cost / wc.latchSteps, "ns"}
	return wc, nil
}

// integratorSystem is a phasemacro.System shaped like m's — its latch
// count, latch design, calibration and reference — whose drive network
// only holds every latch at the logic-0 phasor. Timing its Run over one
// word's horizon gives the integrator's cost alone: m's gate network is
// timed apart, and its decoding and per-word set-up stay in the residual.
func integratorSystem(m *phlogic.MacroMachine, p *ppv.PPV) (*phasemacro.System, []float64) {
	latches := make([]*phasemacro.Latch, m.NumLatches())
	d0 := make([]float64, len(latches))
	for i := range latches {
		latches[i] = &phasemacro.Latch{P: p, Node: m.Cfg.InjNode, Out: m.Cfg.OutNode, SyncAmp: m.Cfg.SyncAmp}
		d0[i] = 0.5
	}
	zero := m.Cal.LogicPhasor(false, m.Cfg.InputAmp)
	return &phasemacro.System{F1: m.F1, Latches: latches, Cal: m.Cal,
		Drive: func(_ float64, _, drives []complex128) {
			for i := range drives {
				drives[i] = zero
			}
		}}, d0
}

// serveUnits measures, for a workload that does not serve HTTP, the serve
// layer's unit costs on the workload's warm engine: each endpoint's
// handler time for serve-mix's request shapes on design d (in-process,
// no network), and the HTTP round trip of an empty request over loopback.
func serveUnits(lm layerMetrics, eng *engine.Engine, d design) error {
	srv, err := serve.New(serve.Options{Engine: eng})
	if err != nil {
		return err
	}
	h := srv.Handler()
	nl, err := logicNetlist.JSON()
	if err != nil {
		return err
	}
	spec := ringSpec(d)
	for ep, rq := range map[string]struct {
		path string
		body any
	}{
		"pss":       {"/v1/pss", serve.PSSRequest{Ring: spec}},
		"ppv":       {"/v1/ppv", serve.PPVRequest{Ring: spec}},
		"gae_sweep": {"/v1/gae/sweep", sweepRequest(spec)},
		"transient": {"/v1/transient", transientRequest(spec)},
		"logic_run": {"/v1/logic/run", serve.LogicRunRequest{Ring: spec, Netlist: nl, Word: adderWord(logicBits, 1, 2)}},
	} {
		body, err := json.Marshal(rq.body)
		if err != nil {
			return err
		}
		var status int
		cost := unitNs(func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(body)))
			status = rec.Code
		})
		if status != http.StatusOK {
			return fmt.Errorf("serve unit cost %s: status %d", ep, status)
		}
		lm["serve.handler_ms."+ep] = metric{cost / 1e6, "ms"}
	}
	addr, stop, err := listen(h)
	if err != nil {
		return err
	}
	defer stop()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	url := "http://" + addr + "/healthz"
	var rerr error
	cost := unitNs(func() {
		resp, err := hc.Get(url)
		if err != nil {
			rerr = err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	if rerr != nil {
		return fmt.Errorf("serve round-trip unit cost: %w", rerr)
	}
	lm["serve.http_overhead_ms"] = metric{cost / 1e6, "ms"}
	return nil
}

// commonUnits measures the unit costs every workload reports on its engine
// and design 0 — engine hit, compiled g, compiling netlist n and the gate
// and latch-step costs of word through it — and the shooting iterations of
// the design set. It returns the work of word through the compiled machine.
func commonUnits(ctx context.Context, lm layerMetrics, r *run, eng *engine.Engine, n *phlogic.Netlist, word []bool) (wordCost, error) {
	d := r.designs[0]
	_, sol, p, err := eng.RingPPV(ctx, d.Cfg)
	if err != nil {
		return wordCost{}, err
	}
	lm["engine.hit_ns"] = metric{unitNs(func() { eng.RingPPV(ctx, d.Cfg) }), "ns"}
	compiledGUnit(lm, gae.NewModel(p, sol.F0, gae.Injection{Node: 0, Amp: 100e-6, Harmonic: 2}))
	wc, err := logicUnits(lm, n, p, word)
	if err != nil {
		return wordCost{}, err
	}
	it, err := shootIters(ctx, eng, r.designs)
	if err != nil {
		return wordCost{}, err
	}
	lm.count("pss.shoot_iters", it)
	return wc, nil
}

// inProcessLayers is the traced-run report of a single-caller in-process
// workload: counters of its traced ops, unit costs on its engine (the
// serve layer's included, which it bypasses), and the count × unit-cost
// shares of its op time. parts are the shares that partition that time.
func inProcessLayers(ctx context.Context, r *run, lm layerMetrics, eng *engine.Engine, parts ...string) error {
	r.coreLayers(lm, func(c diag.Counter) float64 { return float64(r.opM.Get(c)) },
		func(s sample) bool { return s.traced }, r.setupM.Snapshot())
	_, err := commonUnits(ctx, lm, r, eng, phlogic.RippleCarryAdder(adderBits), adderWord(adderBits, 1, 2))
	if err == nil {
		err = serveUnits(lm, eng, r.designs[0])
	}
	estimates(lm)
	residual(lm, parts...)
	return err
}
