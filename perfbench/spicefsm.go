package main

import (
	"context"
	"fmt"
	"math/cmplx"
	"time"

	"repro/internal/engine"
	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// spice-fsm: the paper's SPICE-level reference. Each op builds the
// transistor-level serial adder (Figs. 15/20) for a seeded design and 2-bit
// operands, integrates two clock periods with the θ-trapezoid stepper, and
// decodes each period's sum and carry against the Boolean golden.

const (
	fsmBits        = 2
	fsmClockCycles = 120 // reference cycles per clock period
	fsmStepsPerT1  = 256
	fsmLatches     = 2 // master and slave
)

type adderDesign struct {
	sol *pss.Solution
	cfg ringosc.AdderCircuitConfig // without operand bits
}

type spiceFSM struct {
	r       *run
	eng     *engine.Engine
	designs []adderDesign
}

func (w *spiceFSM) conns() int { return 1 }
func (w *spiceFSM) close()     {}

// setup extracts every design cold, then calibrates its latch macromodel
// and sizes the coupling networks of its adder circuit.
func (w *spiceFSM) setup(ctx context.Context, r *run) error {
	w.r = r
	w.eng = engine.New(engine.Options{Workers: 1})
	w.designs = make([]adderDesign, len(r.designs))
	for i, d := range r.designs {
		_, sol, p, err := w.eng.RingPPV(ctx, d.Cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
		cal, err := phasemacro.Calibrate(&phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 120e-6}, 10e3)
		if err != nil {
			return fmt.Errorf("%s: calibrate: %w", d, err)
		}
		cr, cc, inv, err := ringosc.CouplingFromCalibration(cal.Coupling, sol.F0)
		if err != nil {
			return fmt.Errorf("%s: coupling: %w", d, err)
		}
		w.designs[i] = adderDesign{sol: sol, cfg: ringosc.AdderCircuitConfig{
			Ring: d.Cfg, F1: sol.F0,
			SyncAmp: 120e-6, SyncPhase: cal.SyncPhase,
			InputAmp: cmplx.Abs(cal.OutPhasor0), OutAngle: cmplx.Phase(cal.OutPhasor0),
			CouplingR: cr, CouplingC: cc, Invert: inv,
			ClockCycles: fsmClockCycles,
		}}
	}
	return nil
}

func (w *spiceFSM) build(d adderDesign, a, b []bool) (*ringosc.AdderCircuit, error) {
	cfg := d.cfg
	cfg.ABits, cfg.BBits = a, b
	return ringosc.BuildSerialAdderCircuit(cfg)
}

func (w *spiceFSM) op(ctx context.Context, _, i int) outcome {
	in := drawOp(w.r.seed, i, fsmBits)
	d := w.designs[in.Design]
	a, b := bitsLSB(in.A, fsmBits), bitsLSB(in.B, fsmBits)
	out := outcome{
		what:        describe("design", w.r.designs[in.Design], "a", in.A, "b", in.B),
		latchCycles: fsmLatches * fsmBits * fsmClockCycles,
		corners:     1,
	}
	ac, err := w.build(d, a, b)
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	res, err := transient.RunCtx(ctx, ac.Sys, ac.InitialState(d.sol, false, false), 0, fsmBits*ac.ClockPeriod,
		transient.Options{Method: transient.Trap, Step: 1 / d.sol.F0 / fsmStepsPerT1, Record: 4})
	out.transientNs = float64(time.Since(t0))
	if err != nil {
		out.err = err
		return out
	}
	wantSum, wantCout := phlogic.GoldenSerialAdder(a, b)
	P := ac.ClockPeriod
	for k := 0; k < fsmBits; k++ {
		lo, hi := (float64(k)+0.30)*P, (float64(k)+0.45)*P
		sum, okS, _ := ac.DecodePhase(res.T, res.Node(ac.SumNode), lo, hi)
		cout, okC, _ := ac.DecodePhase(res.T, res.Node(ac.CoutNode), lo, hi)
		out.rec = append(out.rec, in.Design, in.A, in.B, sum, cout)
		switch {
		case !okS || !okC:
			out.err = fmt.Errorf("period %d: undecodable output (sum ok=%v, cout ok=%v)", k, okS, okC)
		case sum != wantSum[k] || cout != wantCout[k]:
			out.err = fmt.Errorf("period %d: sum=%v cout=%v, want sum=%v cout=%v", k, sum, cout, wantSum[k], wantCout[k])
		}
		if out.err != nil {
			return out
		}
	}
	return out
}

func (w *spiceFSM) finish(context.Context, *run) {
	for _, d := range w.designs {
		w.r.digest.add("f0", d.sol.F0)
	}
}

func (w *spiceFSM) layers(ctx context.Context, r *run, lm layerMetrics) {
	d := w.designs[0]
	ac, err := w.build(d, bitsLSB(1, fsmBits), bitsLSB(2, fsmBits))
	if err == nil {
		err = circuitUnits(lm, ac.Sys, ac.InitialState(d.sol, false, false), 1/d.sol.F0/fsmStepsPerT1)
	}
	if err == nil {
		err = inProcessLayers(ctx, r, lm, w.eng, "circuit.est_frac", "linalg.est_frac")
	}
	r.tally.record("layer unit costs", err)
}
