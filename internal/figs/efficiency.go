package figs

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/gae"
	"repro/internal/phlogic"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// EffRow is one line of the efficiency comparison.
type EffRow struct {
	Scenario   string
	Engine     string
	Steps      int
	WallSecs   float64
	CostPerRef float64 // wall seconds per simulated reference cycle
}

// Efficiency measures the paper's headline claim (Secs. 2 and 4.3): phase
// macromodels simulate PHLOGON behaviour orders of magnitude faster than
// SPICE-level transient analysis. Two scenarios are timed on identical
// physics: the Fig. 17 D-latch bit flip (SPICE vs scalar GAE) and a 300-
// cycle FSM run (SPICE-level latch pair vs the coupled phase macromodel).
func (c *Context) Efficiency() ([]EffRow, error) {
	_, _, p, err := c.Ring1()
	if err != nil {
		return nil, err
	}
	_, cal, err := c.calibration()
	if err != nil {
		return nil, err
	}
	f1 := p.F0 * (1 + fig12Detune)
	T1 := 1 / f1
	dPhase1 := cmplx.Phase(p.Harmonic(0, 1))/(2*math.Pi) - 0.25
	var rows []EffRow

	// --- Scenario 1: D-latch bit flip, 140 reference cycles. ---
	const flipCycles = 140.0
	{
		cfg := ringosc.DefaultLatchConfig(f1)
		cfg.SyncAmp = fig10SyncAmp
		cfg.SyncPhase = cal.SyncPhase
		cfg.DAmp = 150e-6
		cfg.DPhase = dPhase1 + 0.5
		cfg.DFlipTime = 40 * T1
		l, err := ringosc.BuildLatch(cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tr, err := transient.RunCtx(c.ctx(), l.Sys, l.KickStart(), 0, flipCycles*T1, transient.Options{
			Method: transient.Trap, Step: T1 / 512,
		})
		if err != nil {
			return nil, err
		}
		el := time.Since(start).Seconds()
		rows = append(rows, EffRow{"bit-flip (Fig. 17)", "SPICE transient", tr.Steps, el, el / flipCycles})
	}
	{
		m := gae.NewModel(p, f1,
			gae.Injection{Name: "SYNC", Node: 0, Amp: fig10SyncAmp, Harmonic: 2, Phase: cal.SyncPhase},
			gae.Injection{Name: "D", Node: 0, Amp: 150e-6, Harmonic: 1, Phase: dPhase1},
		)
		start := time.Now()
		tr := m.TransientCtx(c.ctx(), 0.497, 0, flipCycles*T1, T1)
		el := time.Since(start).Seconds()
		rows = append(rows, EffRow{"bit-flip (Fig. 17)", "GAE macromodel", len(tr.T), el, el / flipCycles})
	}

	// --- Scenario 2: FSM operation, 3 clock periods (360 cycles). ---
	const fsmCycles = 360.0
	{
		// The full transistor/op-amp serial adder (the Fig. 18 breadboard
		// stand-in), adding 101 + 101 end to end.
		aBits := []bool{true, false, true}
		ac, sol, err := c.spiceAdder(aBits, aBits)
		if err != nil {
			return nil, err
		}
		T1fsm := 1 / ac.Cfg.F1
		start := time.Now()
		tr, err := transient.RunCtx(c.ctx(), ac.Sys, ac.InitialState(sol, false, false), 0, 3*ac.ClockPeriod,
			transient.Options{Method: transient.Trap, Step: T1fsm / 256, Record: 8})
		if err != nil {
			return nil, err
		}
		el := time.Since(start).Seconds()
		rows = append(rows, EffRow{"serial adder, 3 clock periods", "SPICE transient (full FSM circuit)", tr.Steps, el, el / fsmCycles})
	}
	{
		aBits := []bool{true, false, true}
		sa, err := phlogic.NewSerialAdder(p, p.F0, aBits, aBits, phlogic.SerialAdderConfig{
			SyncAmp: 100e-6, ClockCycles: 100,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		run, err := sa.Run(3, 0.25)
		if err != nil {
			return nil, err
		}
		el := time.Since(start).Seconds()
		rows = append(rows, EffRow{"serial adder, 3 clock periods", "phase macromodel (full FSM)", run.Steps, el, el / fsmCycles})
	}
	return rows, nil
}

// EffSummary renders the table and the speedups.
func EffSummary(rows []EffRow) string {
	out := fmt.Sprintf("%-32s %-44s %10s %12s %14s\n", "scenario", "engine", "steps", "wall [s]", "s/ref-cycle")
	for _, r := range rows {
		out += fmt.Sprintf("%-32s %-44s %10d %12.4g %14.3g\n", r.Scenario, r.Engine, r.Steps, r.WallSecs, r.CostPerRef)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i].Scenario == rows[i+1].Scenario && rows[i+1].WallSecs > 0 {
			out += fmt.Sprintf("speedup (%s): %.0f×\n", rows[i].Scenario, rows[i].WallSecs/rows[i+1].WallSecs)
		}
	}
	return out
}
