package phlogic_test

import (
	"context"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

var (
	calOnce sync.Once
	calSol  *pss.Solution
	calVal  phasemacro.Calibration
	calCfg  phlogic.CircuitConfig
	calErr  error
)

// circuitFixture calibrates the transistor-level lowering exactly as the
// hand-built serial adder circuit is calibrated: PPV → phasemacro
// calibration → series-RC realization of the coupling rotation.
func circuitFixture(t testing.TB) (*pss.Solution, phlogic.CircuitConfig) {
	t.Helper()
	calOnce.Do(func() {
		p := ringPPV(t)
		r, err := ringosc.Build(ringosc.DefaultConfig())
		if err != nil {
			calErr = err
			return
		}
		calSol, err = pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
			GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 1024,
		})
		if err != nil {
			calErr = err
			return
		}
		const syncAmp = 120e-6
		l := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: syncAmp}
		calVal, err = phasemacro.Calibrate(l, 10e3)
		if err != nil {
			calErr = err
			return
		}
		cr, cc, inv, err := ringosc.CouplingFromCalibration(calVal.Coupling, calSol.F0)
		if err != nil {
			calErr = err
			return
		}
		calCfg = phlogic.CircuitConfig{
			Ring: ringosc.DefaultConfig(), F1: calSol.F0,
			SyncAmp: syncAmp, SyncPhase: calVal.SyncPhase,
			InputAmp: cmplx.Abs(calVal.OutPhasor0), OutAngle: cmplx.Phase(calVal.OutPhasor0),
			CouplingR: cr, CouplingC: cc, Invert: inv,
			ClockCycles: 120,
		}
	})
	if calErr != nil {
		t.Fatal(calErr)
	}
	return calSol, calCfg
}

// TestLowerCircuitAdder2 cross-checks the transistor-level lowering of a
// 2-bit ripple-carry adder word against the Boolean reference: the same IR
// that drives the macromodel backend compiles to op-amp summers over
// phase-encoded rails, decoded by pairwise phase detection against the
// buffered reference node.
func TestLowerCircuitAdder2(t *testing.T) {
	if testing.Short() {
		t.Skip("transistor-level lowering skipped in -short")
	}
	sol, cfg := circuitFixture(t)
	n := phlogic.RippleCarryAdder(2)
	prog, err := n.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range [][2]int{{3, 1}, {1, 2}} {
		a, b := pr[0], pr[1]
		word := adderWord(2, a, b)
		streams := make([][]bool, len(word))
		for i, bit := range word {
			streams[i] = []bool{bit}
		}
		lc, err := phlogic.LowerCircuit(n, streams, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lc.Run(context.Background(), sol, nil, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lc.DecodePeriod(res, 0)
		if err != nil {
			t.Fatalf("%d+%d: %v", a, b, err)
		}
		want, _, err := prog.EvalBool(word, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%d+%d output %d: circuit = %v, boolean = %v", a, b, i, got[i], want[i])
			}
		}
	}
}

// TestLowerCircuitShiftRegister checks the sequential lowering: a 2-stage
// shift register built from master–slave ring-oscillator latch pairs with
// transmission-gate clocking must shift the input stream through.
func TestLowerCircuitShiftRegister(t *testing.T) {
	if testing.Short() {
		t.Skip("transistor-level lowering skipped in -short")
	}
	sol, cfg := circuitFixture(t)
	n := phlogic.ShiftRegister(2)
	stream := []bool{true, false, true}
	lc, err := phlogic.LowerCircuit(n, [][]bool{stream}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lc.Run(context.Background(), sol, nil, float64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	for k := range stream {
		got, err := lc.DecodePeriod(res, k)
		if err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		for j := 0; j < 2; j++ {
			want := false
			if k-j >= 0 {
				want = stream[k-j]
			}
			if got[j] != want {
				t.Errorf("period %d: q%d = %v, want %v", k, j, got[j], want)
			}
		}
	}
}

// TestInputArrayEncodesWord builds the wobblchip-style input stage and
// checks that the oscillator array re-encodes the switch word, decoded by
// the pairwise detectors.
func TestInputArrayEncodesWord(t *testing.T) {
	if testing.Short() {
		t.Skip("input-array transient skipped in -short")
	}
	sol, cfg := circuitFixture(t)
	word := []bool{true, false, true}
	ia, err := phlogic.BuildInputArray(word, phlogic.InputArrayConfig{
		Ring: cfg.Ring, F1: cfg.F1,
		SyncAmp: cfg.SyncAmp, SyncPhase: cfg.SyncPhase,
		InputAmp: cfg.InputAmp, OutAngle: cfg.OutAngle,
		CouplingR: cfg.CouplingR, CouplingC: cfg.CouplingC, Invert: cfg.Invert,
	})
	if err != nil {
		t.Fatal(err)
	}
	T1 := 1 / cfg.F1
	res, err := transient.RunCtx(context.Background(), ia.Sys, ia.InitialState(sol), 0, 40*T1,
		transient.Options{Method: transient.Trap, Step: T1 / 256, Record: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ia.DecodeWord(res.T, res.Node, 30*T1, 40*T1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range word {
		if got[k] != word[k] {
			t.Errorf("bit %d decoded %v, want %v", k, got[k], word[k])
		}
	}
}
