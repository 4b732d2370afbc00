package pss_test

import (
	"errors"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/solver"
)

// TestPhaseOriginIsMidRailRisingEdge: the solve starts the orbit where
// node 0 rises through Vdd/2.
func TestPhaseOriginIsMidRailRisingEdge(t *testing.T) {
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 256})
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.X0[0]; v != r.Cfg.Vdd/2 {
		t.Errorf("node 0 starts at %.17g V, want Vdd/2", v)
	}
	if sol.States[1][0] <= sol.States[0][0] {
		t.Errorf("node 0 falls at the origin (%g → %g V)", sol.States[0][0], sol.States[1][0])
	}
}

// biasedRingDeck is the paper's ring behind an extra node nb, declared
// first so it is node 0, that an RC pulls to Vdd: the ring oscillates, but
// node 0 sits above mid-rail and never rises through it.
const biasedRingDeck = `
.rail vdd 3.0
Rb nb vdd 10k
Cb nb 0 1n
Mn1 n1 n3 0   nmos model=ald1106
Mp1 n1 n3 vdd pmos model=ald1107
C1  n1 0 4.7n
Mn2 n2 n1 0   nmos model=ald1106
Mp2 n2 n1 vdd pmos model=ald1107
C2  n2 0 4.7n
Mn3 n3 n2 0   nmos model=ald1106
Mp3 n3 n2 vdd pmos model=ald1107
C3  n3 0 4.7n
`

// TestShootAutonomousNoPhaseCrossing: an orbit whose node 0 moves too
// little to be a fixed point's but never rises through the phase level
// cannot be anchored; the solve fails with ErrNoPhaseCrossing, which wraps
// ErrNoConvergence, and does not mistake it for a fixed point.
func TestShootAutonomousNoPhaseCrossing(t *testing.T) {
	ckt, err := netlist.Parse(biasedRingDeck)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if ckt.NodeIndex("nb") != 0 {
		t.Fatalf("nb is node %d, want node 0", ckt.NodeIndex("nb"))
	}
	x0 := linalg.Vec{3, 2.7, 0.3, 1.5}
	_, err = pss.ShootAutonomous(sys, x0, pss.Options{GuessT: 1 / 9.6e3, StepsPerPeriod: 256})
	if !errors.Is(err, pss.ErrNoPhaseCrossing) || !errors.Is(err, solver.ErrNoConvergence) || errors.Is(err, pss.ErrFixedPoint) {
		t.Errorf("err = %v, want ErrNoPhaseCrossing", err)
	}
}

// TestShootAutonomousRejectsDrivenLatch: the D latch carries its SYNC and D
// sources, so it has no autonomous limit cycle and its monodromy no
// multiplier near 1 (the nearest sits ~0.5 away). The solve refuses it
// with ErrNotAutonomous, which wraps ErrNoConvergence, instead of reporting
// a period the settle made up.
func TestShootAutonomousRejectsDrivenLatch(t *testing.T) {
	if testing.Short() {
		t.Skip("PSS convergence test")
	}
	l, err := ringosc.BuildLatch(ringosc.DefaultLatchConfig(9596))
	if err != nil {
		t.Fatal(err)
	}
	_, err = pss.ShootAutonomous(l.Sys, l.KickStart(), pss.Options{GuessT: 1 / l.EstimatedF0(), StepsPerPeriod: 1024})
	if !errors.Is(err, pss.ErrNotAutonomous) || !errors.Is(err, solver.ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNotAutonomous", err)
	}
}

// TestStabilityReportNeedsTrivialMultiplier: the Floquet multipliers an
// autonomous solve returned for the D latch at 1,024 steps per period
// (before the solve refused it) have none near 1, so StabilityReport must
// not call the orbit stable, while the ring's orbit stays stable.
func TestStabilityReportNeedsTrivialMultiplier(t *testing.T) {
	grid := make([]float64, 1025)
	latch := &pss.Solution{Grid: grid, Multipliers: []complex128{0.426, 4.7e-4, 1.3e-7, 0}}
	if trivial, _, stable := latch.StabilityReport(); stable {
		t.Errorf("latch multipliers reported stable (trivial %v)", trivial)
	}
	r := buildRing(t, ringosc.DefaultConfig())
	sol, err := pss.ShootAutonomous(r.Sys, r.KickStart(), pss.Options{GuessT: 1 / r.EstimatedF0(), StepsPerPeriod: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if trivial, largest, stable := sol.StabilityReport(); !stable {
		t.Errorf("ring reported unstable (trivial %v, largest other %g)", trivial, largest)
	}
}
