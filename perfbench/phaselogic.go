package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/phlogic"
	"repro/internal/pss"
)

// phase-logic: the paper's macromodel side and the compiler path behind
// /v1/logic/run and phlogon-fsm. Each op pushes one seeded 8-bit word
// through RippleCarryAdder(8), compiled onto the op's design's PPV, and
// checks the phase-decoded sum against a + b.

const adderBits = 8

type phaseLogic struct {
	r        *run
	eng      *engine.Engine
	sols     []*pss.Solution
	machines []*phlogic.MacroMachine
}

func (w *phaseLogic) conns() int { return 1 }
func (w *phaseLogic) close()     {}

// setup extracts every design cold and compiles the adder onto each PPV.
func (w *phaseLogic) setup(ctx context.Context, r *run) error {
	w.r = r
	w.eng = engine.New(engine.Options{Workers: 1})
	w.sols = make([]*pss.Solution, len(r.designs))
	w.machines = make([]*phlogic.MacroMachine, len(r.designs))
	for i, d := range r.designs {
		_, sol, p, err := w.eng.RingPPV(ctx, d.Cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
		m, err := phlogic.CompileMacro(phlogic.RippleCarryAdder(adderBits), p, p.F0, phlogic.MacroConfig{})
		if err != nil {
			return fmt.Errorf("%s: compile: %w", d, err)
		}
		w.sols[i], w.machines[i] = sol, m
	}
	return nil
}

func (w *phaseLogic) op(_ context.Context, _, i int) outcome {
	in := drawOp(w.r.seed, i, adderBits)
	m := w.machines[in.Design]
	out := outcome{
		what:        describe("design", w.r.designs[in.Design], "a", in.A, "b", in.B),
		latchCycles: float64(m.NumLatches()) * m.Cfg.SettleCycles,
		corners:     1,
	}
	bits, res, err := m.RunWord(adderWord(adderBits, in.A, in.B))
	if res != nil {
		out.latchSteps = float64(res.Steps * m.NumLatches())
		out.gateEvals = float64(rk4Stages * res.Steps)
	}
	if err != nil {
		out.err = err
		return out
	}
	got := wordInt(bits)
	out.rec = []any{in.Design, in.A, in.B, got}
	if got != in.A+in.B {
		out.err = fmt.Errorf("decoded %d, want %d", got, in.A+in.B)
	}
	return out
}

func (w *phaseLogic) finish(context.Context, *run) {
	for _, s := range w.sols {
		w.r.digest.add("f0", s.F0)
	}
}

func (w *phaseLogic) layers(ctx context.Context, r *run, lm layerMetrics) {
	r0, sol, _, err := w.eng.RingPPV(ctx, r.designs[0].Cfg)
	if err == nil {
		err = circuitUnits(lm, r0.Sys, sol.X0, sol.T0/1024)
	}
	if err == nil {
		err = inProcessLayers(ctx, r, lm, w.eng, "phasemacro.est_frac", "phlogic.est_frac")
	}
	r.tally.record("layer unit costs", err)
}
