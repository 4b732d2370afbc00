package phlogic_test

import (
	"context"
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
)

var (
	fixOnce sync.Once
	fixPPV  *ppv.PPV
	fixErr  error
)

func ringPPV(t testing.TB) *ppv.PPV {
	t.Helper()
	fixOnce.Do(func() {
		r, err := ringosc.Build(ringosc.DefaultConfig())
		if err != nil {
			fixErr = err
			return
		}
		sol, err := pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
			GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 1024,
		})
		if err != nil {
			fixErr = err
			return
		}
		fixPPV, fixErr = ppv.FromSolutionCtx(context.Background(), r.Sys, sol)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixPPV
}

func phasor(level bool) complex128 {
	if level {
		return 1
	}
	return -1
}

func TestMajPhasorMatchesGoldenTruthTable(t *testing.T) {
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			for _, c := range []bool{false, true} {
				out := phlogic.Maj3(1.4, phasor(a), phasor(b), phasor(c))
				lvl, ok := phlogic.DecodeLevel(out, 1)
				if !ok {
					t.Fatalf("MAJ(%v,%v,%v) undecodable", a, b, c)
				}
				if lvl != phlogic.GoldenMaj3(a, b, c) {
					t.Errorf("MAJ(%v,%v,%v) = %v, want %v", a, b, c, lvl, phlogic.GoldenMaj3(a, b, c))
				}
			}
		}
	}
}

func TestNotGate(t *testing.T) {
	lvl, ok := phlogic.DecodeLevel(phlogic.Not(phasor(true)), 1)
	if !ok || lvl {
		t.Error("NOT(1) must decode to 0")
	}
}

func TestFullAdderPhasorTruthTable(t *testing.T) {
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			for _, c := range []bool{false, true} {
				sum, cout := phlogic.FullAdder(1.4, phasor(a), phasor(b), phasor(c))
				sl, ok1 := phlogic.DecodeLevel(sum, 1)
				cl, ok2 := phlogic.DecodeLevel(cout, 1)
				if !ok1 || !ok2 {
					t.Fatalf("adder output undecodable for (%v,%v,%v): sum=%v cout=%v", a, b, c, sum, cout)
				}
				ws, wc := phlogic.GoldenFullAdder(a, b, c)
				if sl != ws || cl != wc {
					t.Errorf("FA(%v,%v,%v) = (%v,%v), want (%v,%v)", a, b, c, sl, cl, ws, wc)
				}
			}
		}
	}
}

func TestMajSaturationPreservesPhase(t *testing.T) {
	f := func(reRaw, imRaw int8) bool {
		in := complex(float64(reRaw)/16, float64(imRaw)/16)
		if cmplx.Abs(in) == 0 {
			return true
		}
		out := phlogic.Maj(1.0, []float64{5}, []complex128{in})
		// Magnitude limited, phase preserved.
		return cmplx.Abs(out) <= 1.0000001 &&
			math.Abs(cmplx.Phase(out)-cmplx.Phase(in)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenSerialAdder(t *testing.T) {
	// 101 + 101 (LSB first: 1,0,1 = 5): 5 + 5 = 10 = 0101 LSB-first sum
	// within 3 bits: sum = (0,1,0), carries = (1,0,1).
	a := []bool{true, false, true}
	sum, carry := phlogic.GoldenSerialAdder(a, a)
	wantSum := []bool{false, true, false}
	wantCarry := []bool{true, false, true}
	for i := range wantSum {
		if sum[i] != wantSum[i] || carry[i] != wantCarry[i] {
			t.Fatalf("golden adder bit %d: sum %v carry %v", i, sum, carry)
		}
	}
}

func TestClockEnablesComplementary(t *testing.T) {
	c := phlogic.Clock{Period: 1e-3}
	for _, tt := range []float64{0.1e-3, 0.25e-3, 0.6e-3, 0.9e-3, 1.3e-3} {
		em, es := c.ENMaster(tt), c.ENSlave(tt)
		if math.Abs(em+es-1) > 1e-9 {
			t.Errorf("enables not complementary at t=%g: %g + %g", tt, em, es)
		}
		if em < -1e-9 || em > 1+1e-9 {
			t.Errorf("enable out of range at t=%g", tt)
		}
	}
	// Master transparent while CLK high (first half period).
	if c.ENMaster(0.25e-3) < 0.99 {
		t.Error("master must be enabled mid high phase")
	}
	if c.ENMaster(0.75e-3) > 0.01 {
		t.Error("master must be disabled mid low phase")
	}
	if !c.Level(0.1e-3) || c.Level(0.6e-3) {
		t.Error("Level must be high then low")
	}
}

// TestClocksContinuousAtPeriodBoundaries: every clock the latches see is
// continuous at t = kP for k = 1, 2, 3 — the SPICE-level adder's clk/clkb,
// a compiled sequential netlist's clock rails and the macromodel enables:
// the jump over ±εP shrinks with ε at the edge's slope, high/(0.02·P).
func TestClocksContinuousAtPeriodBoundaries(t *testing.T) {
	const f1 = 9.6e3
	adder, err := ringosc.BuildSerialAdderCircuit(ringosc.AdderCircuitConfig{F1: f1, InputAmp: 1,
		CouplingR: 1e3, CouplingC: 1e-9, ABits: []bool{true}, BBits: []bool{false}})
	if err != nil {
		t.Fatal(err)
	}
	shift, err := phlogic.LowerCircuit(phlogic.ShiftRegister(2), [][]bool{{true, false}},
		phlogic.CircuitConfig{F1: f1, InputAmp: 1, CouplingR: 1e3, CouplingC: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rail := func(ckt *circuit.Circuit, name string) func(float64) float64 {
		return func(tt float64) float64 { return ckt.RailVoltage(ckt.Node(name), tt) }
	}
	enables := phlogic.Clock{Period: 100 / f1}
	for _, c := range []struct {
		name         string
		w            func(float64) float64
		period, high float64
	}{
		{"adder clk", rail(adder.Ckt, "clk"), adder.ClockPeriod, 3},
		{"adder clkb", rail(adder.Ckt, "clkb"), adder.ClockPeriod, 3},
		{"shift-register clk", rail(shift.Ckt, "clk"), shift.ClockPeriod, 3},
		{"shift-register clkb", rail(shift.Ckt, "clkb"), shift.ClockPeriod, 3},
		{"ENMaster", enables.ENMaster, enables.Period, 1},
		{"ENSlave", enables.ENSlave, enables.Period, 1},
	} {
		P := c.period
		for k := 1.0; k <= 3; k++ {
			for _, eps := range []float64{1e-6, 1e-8, 1e-10} {
				jump := math.Abs(c.w(k*P+eps*P) - c.w(k*P-eps*P))
				if bound := 1.01 * 2 * eps * P * c.high / (0.02 * P); jump > bound {
					t.Errorf("%s: jump at %g·P over ±%g·P = %g, want ≤ %g", c.name, k, eps, jump, bound)
				}
			}
		}
	}
}

func TestBitStreamTransitionsMidLowPhase(t *testing.T) {
	c := phlogic.Clock{Period: 1.0}
	s := phlogic.BitStream{Bits: []bool{true, false, true}, Clock: c}
	cases := map[float64]bool{
		0.0:  true,  // bit 0
		0.5:  true,  // still bit 0
		0.74: true,  // just before transition
		0.76: false, // bit 1
		1.5:  false,
		1.76: true, // bit 2
		5.0:  true, // clamped
	}
	for tt, want := range cases {
		if got := s.At(tt); got != want {
			t.Errorf("At(%g) = %v, want %v", tt, got, want)
		}
	}
}

// TestSerialAdderComputesCorrectly is the package's headline test: the
// Fig. 15/16 FSM, simulated on phase macromodels, must add two bit streams
// exactly as the golden Boolean model does — including the master–slave
// carry hand-off the paper validates on the oscilloscope (Fig. 19).
func TestSerialAdderComputesCorrectly(t *testing.T) {
	p := ringPPV(t)
	cases := [][2][]bool{
		{{true, false, true}, {true, false, true}},     // 101 + 101 (the paper's Fig. 16)
		{{true, true, false}, {true, false, false}},    // 3 + 1
		{{false, false, false}, {false, false, false}}, // 0 + 0
		{{true, true, true}, {true, true, true}},       // 7 + 7
	}
	for _, tc := range cases {
		sa, err := phlogic.NewSerialAdder(p, p.F0, tc[0], tc[1], phlogic.SerialAdderConfig{
			SyncAmp: 100e-6, ClockCycles: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := len(tc[0])
		res, err := sa.Run(float64(n), 0.25)
		if err != nil {
			t.Fatal(err)
		}
		sums, err := sa.ReadSums(res, n)
		if err != nil {
			t.Fatal(err)
		}
		carries, err := sa.ReadCarries(res, n)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, wantCarry := phlogic.GoldenSerialAdder(tc[0], tc[1])
		for i := 0; i < n; i++ {
			if sums[i] != wantSum[i] {
				t.Errorf("case %v: sum bit %d = %v, want %v", tc, i, sums[i], wantSum[i])
			}
			if carries[i] != wantCarry[i] {
				t.Errorf("case %v: carry bit %d = %v, want %v", tc, i, carries[i], wantCarry[i])
			}
		}
	}
}

// TestMasterSlaveHandoff reproduces the Fig. 19 observation: Q1 acquires the
// new value while CLK is high; Q2 holds the old value until the rising edge
// of the next period.
func TestMasterSlaveHandoff(t *testing.T) {
	p := ringPPV(t)
	a := []bool{true, true}
	b := []bool{true, true} // both bits set: carry goes 0 → 1 after bit 0
	sa, err := phlogic.NewSerialAdder(p, p.F0, a, b, phlogic.SerialAdderConfig{
		SyncAmp: 100e-6, ClockCycles: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sa.Run(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	P := sa.Clock.Period
	at := func(tt float64) (q1, q2 bool) {
		idx := 0
		for idx < len(res.T)-1 && res.T[idx+1] <= tt {
			idx++
		}
		return res.Bit(0, idx), res.Bit(1, idx)
	}
	// Mid high phase of period 0: master has acquired carry-out = 1; slave
	// still holds initial 0.
	q1, q2 := at(0.35 * P)
	if !q1 {
		t.Error("Q1 must follow the new carry during CLK high")
	}
	if q2 {
		t.Error("Q2 must hold the old carry during CLK high")
	}
	// Mid low phase: slave has taken the master's value.
	_, q2 = at(0.75 * P)
	if !q2 {
		t.Error("Q2 must follow Q1 during CLK low")
	}
}

func TestSRLatchWeightTradeoffFig14(t *testing.T) {
	// The paper's Fig. 14 conclusion: with uniform weights (1,1,1) the
	// latch is intolerant to S/R mismatch, while (0.01, 0.01, 1) tolerates
	// mismatch yet still flips when S and R agree at Vdd/2 = 1.5 V.
	p := ringPPV(t)
	uniform, err := phlogic.NewSRLatch(p, 0, 0, p.F0, 6e-6, 10e3, [3]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := phlogic.NewSRLatch(p, 0, 0, p.F0, 6e-6, 10e3, [3]float64{0.01, 0.01, 1})
	if err != nil {
		t.Fatal(err)
	}
	const vIn = 1.5
	const mismatch = 0.05
	if !weighted.HoldsUnderMismatch(vIn, mismatch) {
		t.Error("weighted SR latch must hold under 5% S/R mismatch")
	}
	if uniform.HoldsUnderMismatch(vIn, mismatch) {
		t.Error("uniform SR latch should NOT hold under 5% mismatch (that is Fig. 14's point)")
	}
	if !weighted.FlipsWhenSet(vIn) {
		t.Error("weighted SR latch must still flip when S and R agree at 1.5 V")
	}
}

func TestSRLatchHoldWithOppositeInputs(t *testing.T) {
	// Perfectly matched opposite S/R cancel exactly: both logic states
	// survive for any common magnitude.
	p := ringPPV(t)
	l, err := phlogic.NewSRLatch(p, 0, 0, p.F0, 6e-6, 10e3, [3]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mag := range []float64{0.1, 0.5, 1.0, 1.5} {
		ph := l.StablePhases(mag, mag, true)
		if len(ph) < 2 {
			t.Errorf("matched opposite inputs at %g V: %d stable states, want 2", mag, len(ph))
		}
	}
}

func TestDecodeLevelRejectsQuadrature(t *testing.T) {
	if _, ok := phlogic.DecodeLevel(1i, 1); ok {
		t.Error("quadrature signal must be undecodable")
	}
	if _, ok := phlogic.DecodeLevel(0, 1); ok {
		t.Error("zero signal must be undecodable")
	}
}
