package phlogon_test

import (
	"context"
	"errors"
	"math"
	"testing"

	phlogon "repro"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/gae"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// The taxonomy contract: every failure mode of the library wraps one of the
// four public sentinels, wherever in the stack it originates.

func TestErrNoConvergenceFromShooting(t *testing.T) {
	r, err := phlogon.BuildRing(phlogon.DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One Newton iteration at an unreachable tolerance must fail through the
	// public sentinel.
	_, err = pss.ShootAutonomousCtx(context.Background(), r.Sys, r.KickStart(), pss.Options{
		GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 64, SettleCycles: 1,
		MaxIter: 1, Tol: 1e-30,
	})
	if err == nil {
		t.Fatal("one iteration at Tol=1e-30 converged?")
	}
	if !errors.Is(err, phlogon.ErrNoConvergence) {
		t.Fatalf("shooting failure does not wrap ErrNoConvergence: %v", err)
	}
}

// dampedRC is a one-node RC (time constant 1 ms) posing as an oscillator:
// no limit cycle, only an equilibrium at 0 V that the settle decays toward.
type dampedRC struct{ sys *phlogon.System }

func (o dampedRC) System() *phlogon.System { return o.sys }
func (o dampedRC) InitialState() []float64 { return []float64{1} }
func (o dampedRC) EstimatedF0() float64    { return 1e3 }
func (o dampedRC) OscillatorKey() (string, any) {
	return "rc", struct{ R, C float64 }{1e3, 1e-6}
}

// A fixed point passes the periodicity test for any period; the facade's
// uncached FindPSSCtx must refuse it through the public sentinel rather than
// report f0 = 1/GuessT.
func TestErrNoConvergenceFromFixedPoint(t *testing.T) {
	c := phlogon.NewCircuit()
	c.ParasiticCap = 0
	n1 := c.Node("n1")
	c.Add(
		&phlogon.Resistor{Name: "r", A: n1, B: phlogon.Ground, R: 1e3},
		&phlogon.Capacitor{Name: "c", A: n1, B: phlogon.Ground, C: 1e-6},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if sol, err := phlogon.FindPSSCtx(context.Background(), dampedRC{sys}); !errors.Is(err, phlogon.ErrNoConvergence) {
		t.Fatalf("FindPSSCtx on a damped RC: (%v, %v), want ErrNoConvergence", sol, err)
	}
}

func TestErrSingularJacobian(t *testing.T) {
	_, err := linalg.Factorize(linalg.NewMat(2, 2)) // the zero matrix
	if !errors.Is(err, phlogon.ErrSingularJacobian) {
		t.Fatalf("singular LU does not wrap ErrSingularJacobian: %v", err)
	}
}

// The sparse backend must surface the same public sentinel as the dense one:
// one taxonomy, two factorizations.
func TestErrSingularJacobianSparse(t *testing.T) {
	// 2×2 with exactly dependent rows.
	m := sparse.NewCSC(sparse.PatternFromEntries(2, []int{0, 0, 1, 1}, []int{0, 1, 0, 1}))
	m.Val[0], m.Val[1], m.Val[2], m.Val[3] = 1, 1, 2, 2
	if _, err := sparse.Factorize(m); !errors.Is(err, phlogon.ErrSingularJacobian) {
		t.Fatalf("singular sparse LU does not wrap ErrSingularJacobian: %v", err)
	}
}

func TestErrNoLock(t *testing.T) {
	eng := phlogon.NewEngine(phlogon.EngineOptions{
		PSS: phlogon.PSSOptions{StepsPerPeriod: 256, SettleCycles: 10},
	})
	_, _, p, err := eng.RingPPV(context.Background(), ringosc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A vanishing SYNC drive cannot overcome a 1% detuning.
	m := gae.NewModel(p, 1.01*p.F0, gae.Injection{Node: 0, Amp: 1e-15, Harmonic: 2})
	if _, _, err := m.SHILPhases(); !errors.Is(err, phlogon.ErrNoLock) {
		t.Fatalf("lockless SHIL does not wrap ErrNoLock: %v", err)
	}
}

func TestErrUnsupported(t *testing.T) {
	r, err := phlogon.BuildRing(phlogon.DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = phlogon.RunTransientCtx(context.Background(), r.Sys, r.KickStart(),
		0, 1e-3, phlogon.TransientOptions{Method: transient.Gear2, Adaptive: true, Step: 1e-6})
	if !errors.Is(err, phlogon.ErrUnsupported) {
		t.Fatalf("Gear2+Adaptive does not wrap ErrUnsupported: %v", err)
	}
	if !errors.Is(err, transient.ErrGear2Adaptive) {
		t.Fatalf("specific sentinel lost from the chain: %v", err)
	}
}

// nanJacobian stamps a NaN self-conductance derivative on its node after
// time After, making every later iteration matrix singular.
type nanJacobian struct {
	Node  circuit.NodeID
	After float64
}

func (d *nanJacobian) Label() string              { return "nanJ" }
func (d *nanJacobian) StampC(*circuit.CapStamper) {}

// NewKernel implements circuit.Device; the kernel stamps position i's NaN
// into its resolved self-conductance slot.
func (d *nanJacobian) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	nk := lay.Lanes()
	kn := &nanJacobianKernel{slots: lay.Slots(p.Len()), after: make([]float64, p.Len()*nk), k: nk}
	for i := range kn.slots {
		node := p.At(i, 0).(*nanJacobian).Node
		kn.slots[i] = lay.Slot(node, node)
		for k := 0; k < nk; k++ {
			kn.after[i*nk+k] = p.At(i, k).(*nanJacobian).After
		}
	}
	return kn, nil
}

type nanJacobianKernel struct {
	slots []int
	after []float64 // [i·K + k]
	k     int
}

func (kn *nanJacobianKernel) Eval(lo, hi int, e *circuit.EvalContext) {
	for i := lo; i < hi; i++ {
		for _, k := range e.Active {
			if e.WantJacobian && kn.slots[i] >= 0 && e.T(k) > kn.after[i*kn.k+k] {
				e.JV[k*e.NNZ+kn.slots[i]] += math.NaN()
			}
		}
	}
}

// A θ run whose corrector keeps meeting a singular iteration matrix halves
// its step to the floor; the underflow error must keep both the cause and
// the underflow in its chain.
func TestErrTransientUnderflowKeepsSingularCause(t *testing.T) {
	c := circuit.New()
	n1 := c.Node("n1")
	c.Add(
		&device.Resistor{Name: "r", A: n1, B: circuit.Ground, R: 1e3},
		&nanJacobian{Node: n1, After: 1e-3},
	)
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	_, err = phlogon.RunTransientCtx(context.Background(), sys, linalg.Vec{1}, 0, 2e-3,
		phlogon.TransientOptions{Method: transient.Trap, Step: 1e-5})
	if !errors.Is(err, phlogon.ErrSingularJacobian) {
		t.Fatalf("corrector underflow does not wrap ErrSingularJacobian: %v", err)
	}
	if !errors.Is(err, transient.ErrStepUnderflow) {
		t.Fatalf("corrector underflow does not wrap ErrStepUnderflow: %v", err)
	}
}

// Every "Newton corrector did not converge" failure — θ (through the step
// underflow), Gear2 and a batched lane — wraps the public ErrNoConvergence.
func TestErrTransientCorrectorNoConvergence(t *testing.T) {
	r, err := phlogon.BuildRing(phlogon.DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	step := 1 / r.EstimatedF0() / 256
	for _, m := range []transient.Method{transient.Trap, transient.Gear2} {
		_, err := phlogon.RunTransientCtx(context.Background(), r.Sys, r.KickStart(), 0, 4*step,
			phlogon.TransientOptions{Method: m, Step: step, MaxNewton: 1, NewtonTol: 1e-15})
		if !errors.Is(err, phlogon.ErrNoConvergence) {
			t.Fatalf("%v corrector failure does not wrap ErrNoConvergence: %v", m, err)
		}
	}
	b, err := circuit.NewBatch([]*circuit.System{r.Sys})
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.RunBatch(context.Background(), b, r.KickStart(), transient.BatchOptions{
		Options: transient.Options{Method: transient.Trap, Step: step, MaxNewton: 1, NewtonTol: 1e-15},
		T1:      []float64{4 * step},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err[0], phlogon.ErrNoConvergence) {
		t.Fatalf("batched lane failure does not wrap ErrNoConvergence: %v", res.Err[0])
	}
}
