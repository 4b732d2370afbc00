package ringosc_test

import (
	"context"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// adderFixture caches the calibrated adder configuration.
type adderFixture struct {
	sol *pss.Solution
	p   *ppv.PPV
	cal phasemacro.Calibration
	cr  float64
	cc  float64
	inv bool
}

var (
	adderOnce sync.Once
	adderFix  *adderFixture
	adderErr  error
)

func getAdderFixture(t testing.TB) *adderFixture {
	t.Helper()
	adderOnce.Do(func() {
		r, err := ringosc.Build(ringosc.DefaultConfig())
		if err != nil {
			adderErr = err
			return
		}
		sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{
			GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 1024,
		})
		if err != nil {
			adderErr = err
			return
		}
		p, err := ppv.FromSolution(r.Sys, sol)
		if err != nil {
			adderErr = err
			return
		}
		latch := &phasemacro.Latch{P: p, Node: 0, Out: 0, SyncAmp: 120e-6}
		cal, err := phasemacro.Calibrate(latch, 10e3)
		if err != nil {
			adderErr = err
			return
		}
		cr, cc, inv, err := ringosc.CouplingFromCalibration(cal.Coupling, sol.F0)
		if err != nil {
			adderErr = err
			return
		}
		adderFix = &adderFixture{sol: sol, p: p, cal: cal, cr: cr, cc: cc, inv: inv}
	})
	if adderErr != nil {
		t.Fatal(adderErr)
	}
	return adderFix
}

func (f *adderFixture) config(a, b []bool) ringosc.AdderCircuitConfig {
	return ringosc.AdderCircuitConfig{
		Ring: ringosc.DefaultConfig(), F1: f.sol.F0,
		SyncAmp: 120e-6, SyncPhase: f.cal.SyncPhase,
		InputAmp: cmplx.Abs(f.cal.OutPhasor0), OutAngle: cmplx.Phase(f.cal.OutPhasor0),
		CouplingR: f.cr, CouplingC: f.cc, Invert: f.inv,
		ClockCycles: 120, ABits: a, BBits: b,
	}
}

// runAdder simulates nPeriods clock periods from the given carry state and
// decodes per-period sum/cout/master/slave levels.
func runAdder(t testing.TB, f *adderFixture, a, b []bool, carry0 bool, nPeriods int) (sums, couts, masters, slaves []bool) {
	t.Helper()
	ac, err := ringosc.BuildSerialAdderCircuit(f.config(a, b))
	if err != nil {
		t.Fatal(err)
	}
	T1 := 1 / f.sol.F0
	res, err := transient.Run(ac.Sys, ac.InitialState(f.sol, carry0, carry0), 0,
		float64(nPeriods)*ac.ClockPeriod, transient.Options{
			Method: transient.Trap, Step: T1 / 256, Record: 4,
		})
	if err != nil {
		t.Fatal(err)
	}
	P := ac.ClockPeriod
	decode := func(node int, lo, hi float64) bool {
		lvl, ok, _ := ac.DecodePhase(res.T, res.Node(node), lo, hi)
		if !ok {
			t.Fatalf("undecodable node %d in [%g, %g]", node, lo, hi)
		}
		return lvl
	}
	for k := 0; k < nPeriods; k++ {
		base := float64(k) * P
		sums = append(sums, decode(ac.SumNode, base+0.30*P, base+0.45*P))
		couts = append(couts, decode(ac.CoutNode, base+0.30*P, base+0.45*P))
		masters = append(masters, decode(ac.MasterOut, base+0.30*P, base+0.45*P))
		slaves = append(slaves, decode(ac.SlaveOut, base+0.80*P, base+0.95*P))
	}
	return sums, couts, masters, slaves
}

// TestSpiceAdderPaperCase is the repository's hardware-validation stand-in:
// the full transistor/op-amp serial adder (two ring-oscillator latches,
// majority-gate full adder, transmission-gate clocking, series-RC coupling
// networks sized by CouplingFromCalibration) computes the paper's a = b =
// 101 case correctly at SPICE level.
func TestSpiceAdderPaperCase(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-level FSM simulation is slow")
	}
	f := getAdderFixture(t)
	a := []bool{true, false, true}
	sums, couts, _, slaves := runAdder(t, f, a, a, false, 3)
	wantSum, wantCout := phlogic.GoldenSerialAdder(a, a)
	for k := range wantSum {
		if sums[k] != wantSum[k] {
			t.Errorf("bit %d: sum = %v, want %v", k, sums[k], wantSum[k])
		}
		if couts[k] != wantCout[k] {
			t.Errorf("bit %d: cout = %v, want %v", k, couts[k], wantCout[k])
		}
		// The slave must hold the carry for the next period (Fig. 19).
		if slaves[k] != wantCout[k] {
			t.Errorf("bit %d: slave = %v, want carry %v", k, slaves[k], wantCout[k])
		}
	}
}

// TestSpiceAdderFig20States reproduces the Fig. 20 scope observation at
// circuit level: with a = 0, b = 1, the carry-0 state yields sum = 1,
// cout = 0 and the carry-1 state yields sum = 0, cout = 1.
func TestSpiceAdderFig20States(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-level FSM simulation is slow")
	}
	f := getAdderFixture(t)
	a := []bool{false}
	b := []bool{true}
	sums0, couts0, _, _ := runAdder(t, f, a, b, false, 1)
	if !sums0[0] || couts0[0] {
		t.Errorf("carry-0 state: sum=%v cout=%v, want sum=1 cout=0", sums0[0], couts0[0])
	}
	sums1, couts1, _, _ := runAdder(t, f, a, b, true, 1)
	if sums1[0] || !couts1[0] {
		t.Errorf("carry-1 state: sum=%v cout=%v, want sum=0 cout=1", sums1[0], couts1[0])
	}
}

// TestSpiceAdderMasterSlaveHandoff checks Fig. 19's hand-off at circuit
// level: the master acquires the new carry during CLK high; the slave takes
// the master's value during CLK low.
func TestSpiceAdderMasterSlaveHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-level FSM simulation is slow")
	}
	f := getAdderFixture(t)
	a := []bool{true, true}
	b := []bool{true, true}
	_, couts, masters, slaves := runAdder(t, f, a, b, false, 2)
	for k := range masters {
		if masters[k] != couts[k] {
			t.Errorf("period %d: master=%v, cout=%v", k, masters[k], couts[k])
		}
		if slaves[k] != masters[k] {
			t.Errorf("period %d: slave=%v did not take master=%v", k, slaves[k], masters[k])
		}
	}
}

// TestSpiceAdderBackendsAgree runs the SPICE-level reference op — the
// adder over two clock periods of 120 cycles for 2-bit operands,
// trapezoidal at T1/256, every fourth point recorded — on the dense and the
// sparse backend. Both take the same steps and do the same work, decode the
// same sum and carry in every period, and stay within maxNodeDiff of each
// other at every recorded point.
func TestSpiceAdderBackendsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE-level FSM simulation is slow")
	}
	// The backends' factorizations round differently and nothing else
	// differs: over all sixteen 2-bit operand pairs the largest difference
	// measured at a recorded point is 2.7e-14 V.
	const maxNodeDiff = 1e-12
	f := getAdderFixture(t)
	T1 := 1 / f.sol.F0
	for _, ops := range [][2][]bool{{{true, true}, {true, false}}, {{false, true}, {true, true}}} {
		a, b := ops[0], ops[1]
		ac, err := ringosc.BuildSerialAdderCircuit(f.config(a, b))
		if err != nil {
			t.Fatal(err)
		}
		P := ac.ClockPeriod
		var res [2]*transient.Result
		var work [2]*diag.Metrics
		for i, bk := range []linalg.Backend{linalg.BackendDense, linalg.BackendSparse} {
			work[i] = diag.New()
			res[i], err = transient.RunCtx(diag.WithMetrics(context.Background(), work[i]), ac.Sys,
				ac.InitialState(f.sol, false, false), 0, 2*P,
				transient.Options{Method: transient.Trap, Step: T1 / 256, Record: 4, Backend: bk})
			if err != nil {
				t.Fatalf("a=%v b=%v %v: %v", a, b, bk, err)
			}
		}
		d, s := res[0], res[1]
		if d.Steps != s.Steps || d.Rejected != s.Rejected || len(d.X) != len(s.X) {
			t.Fatalf("a=%v b=%v: dense %d steps (%d rejected, %d points), sparse %d (%d, %d)",
				a, b, d.Steps, d.Rejected, len(d.X), s.Steps, s.Rejected, len(s.X))
		}
		for _, c := range []diag.Counter{diag.NewtonIterations, diag.LUFactorizations, diag.CircuitEvals, diag.CircuitJacEvals} {
			if dn, sn := work[0].Get(c), work[1].Get(c); dn != sn {
				t.Errorf("a=%v b=%v: %v dense %d, sparse %d", a, b, c, dn, sn)
			}
		}
		worst := 0.0
		for k := range d.X {
			if d.T[k] != s.T[k] {
				t.Fatalf("a=%v b=%v: point %d at t = %g dense, %g sparse", a, b, k, d.T[k], s.T[k])
			}
			for j := range d.X[k] {
				worst = math.Max(worst, math.Abs(d.X[k][j]-s.X[k][j]))
			}
		}
		t.Logf("a=%v b=%v: largest node difference %.3g V", a, b, worst)
		if worst > maxNodeDiff {
			t.Errorf("a=%v b=%v: backends differ by %.3g V, want ≤ %g", a, b, worst, maxNodeDiff)
		}
		wantSum, wantCout := phlogic.GoldenSerialAdder(a, b)
		for k := 0; k < 2; k++ {
			lo, hi := (float64(k)+0.30)*P, (float64(k)+0.45)*P
			for _, node := range []int{ac.SumNode, ac.CoutNode} {
				dl, okD, _ := ac.DecodePhase(d.T, d.Node(node), lo, hi)
				sl, okS, _ := ac.DecodePhase(s.T, s.Node(node), lo, hi)
				if !okD || !okS || dl != sl {
					t.Errorf("a=%v b=%v period %d node %d: dense %v (ok %v), sparse %v (ok %v)", a, b, k, node, dl, okD, sl, okS)
				}
			}
			if sl, _, _ := ac.DecodePhase(s.T, s.Node(ac.SumNode), lo, hi); sl != wantSum[k] {
				t.Errorf("a=%v b=%v period %d: sum %v, want %v", a, b, k, sl, wantSum[k])
			}
			if cl, _, _ := ac.DecodePhase(s.T, s.Node(ac.CoutNode), lo, hi); cl != wantCout[k] {
				t.Errorf("a=%v b=%v period %d: cout %v, want %v", a, b, k, cl, wantCout[k])
			}
		}
	}
}

// TestCouplingFromCalibration verifies the RC synthesis: the series network
// must reproduce the requested complex coupling at f1.
func TestCouplingFromCalibration(t *testing.T) {
	f1 := 9.6e3
	w := 2 * math.Pi * f1
	for _, k := range []complex128{
		cmplx.Rect(1e-4, 0.4),
		cmplx.Rect(2e-4, 1.2),
		cmplx.Rect(5e-5, 0.4+math.Pi), // inverted branch
	} {
		r, c, inv, err := ringosc.CouplingFromCalibration(k, f1)
		if err != nil {
			t.Fatalf("k=%v: %v", k, err)
		}
		// Admittance of series RC: jωC/(1+jωRC).
		y := complex(0, w*c) / (1 + complex(0, w*r*c))
		if inv {
			y = -y
		}
		if cmplx.Abs(y-k) > 1e-9*cmplx.Abs(k) {
			t.Errorf("k=%v: synthesized admittance %v", k, y)
		}
	}
	// Unrealizable rotation (too close to 0 or 90°).
	if _, _, _, err := ringosc.CouplingFromCalibration(cmplx.Rect(1e-4, 1e-5), 9.6e3); err == nil {
		t.Error("near-zero rotation should be rejected")
	}
}
