package pss

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/solver"
)

// This file holds what the autonomous solve needs to know about where an
// orbit starts and whether it is one: the phase condition, the settle's
// resolution, and the check that the converged orbit is autonomous.
//
// The phase origin is a property of the circuit, not of the settle. Node 0
// (n1 on every ring and deck) is pinned at the phase level — the midpoint of
// ground and the circuit's rail potentials at t = 0, Vdd/2 on every ring,
// latch and array the repository builds — on its rising edge. The settle only
// lands the start near the limit cycle: its last cycle is recorded and
// searched for node 0's first rising crossing of the level, and the bordered
// Newton then keeps node 0 at the level while it converges the period. Two
// solves that settled differently (length, period guess, start state)
// therefore converge to the same orbit point, and the grid, f0 and every PPV
// harmonic follow from that point alone.

// defaultSettleCycles is the settle length a solve defaults to, in
// periods of the guess. With ringosc.EstimatedF0's guess within 0.87–1.17
// of the true f0 these are real cycles, and seven is the fewest that cost
// no shooting iteration against a twenty-cycle settle on any ring of
// 3/5/9 stages × Vdd 1.2/2/3/5 V × 1N1P/2N1P, at 256, 512 or 1,024 steps
// per period, scalar or batched (five and six each cost one or two on
// some ring at some step count; four fails a ring at 256).
const defaultSettleCycles = 7

// settleStepsPerPeriod is the settle's resolution: a settle integrates at
// min(StepsPerPeriod, settleStepsPerPeriod) steps per period. The settle only
// conditions the shooting iteration's start state and period estimate, and
// shooting re-converges the orbit at StepsPerPeriod to Tol, so the coarse grid
// costs no accuracy; on every cold case measured it costs no Newton iteration
// either.
const settleStepsPerPeriod = 64

// settleSteps returns the settle's steps per period for a solve at spp.
func settleSteps(spp int) int { return min(spp, settleStepsPerPeriod) }

// searchSteps is the length, in settle steps, of the recorded run the phase
// search scans: the settle's last cycle plus a quarter cycle, so a crossing
// that falls on the window's edge is seen on one side of it.
func searchSteps(settleSPP int) int { return settleSPP + settleSPP/4 }

// phaseLevel returns the potential node 0 is pinned at by the autonomous phase
// condition: the midpoint of ground and every rail of sys at t = 0.
func phaseLevel(sys *circuit.System) float64 {
	lo, hi := sys.Ckt.RailRange(0)
	return (lo + hi) / 2
}

// ErrNoPhaseCrossing reports an autonomous solve whose settled trajectory
// moves but whose node 0 never rises through the phase level, so the orbit
// cannot be anchored. It wraps solver.ErrNoConvergence.
var ErrNoPhaseCrossing = fmt.Errorf("pss: node 0 never rises through the phase level: %w", solver.ErrNoConvergence)

// phaseStart writes into dst the state at node 0's first rising crossing of
// level in the recorded trajectory states, interpolated linearly between the
// two points that bracket it, with node 0 set to level exactly. A trajectory
// without such a crossing fails with ErrFixedPoint when it does not
// oscillate — no node moves both ways, as at an equilibrium or on the way to
// one, however short the settle (see checkOrbitSwing) — and with
// ErrNoPhaseCrossing otherwise.
func phaseStart(dst linalg.Vec, states []linalg.Vec, level, tol float64) error {
	for i := 1; i < len(states); i++ {
		a, b := states[i-1], states[i]
		if a[0] < level && b[0] >= level {
			f := (level - a[0]) / (b[0] - a[0])
			for j := range dst {
				dst[j] = a[j] + f*(b[j]-a[j])
			}
			dst[0] = level
			return nil
		}
	}
	if err := checkOrbitSwing(states, tol); err != nil {
		return err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range states {
		lo, hi = math.Min(lo, x[0]), math.Max(hi, x[0])
	}
	return fmt.Errorf("%w (level %.4g V, node 0 spans [%.4g, %.4g] V over the settle's last cycle)", ErrNoPhaseCrossing, level, lo, hi)
}

// ErrNotAutonomous reports an autonomous solve whose converged orbit has no
// Floquet multiplier near 1. An autonomous orbit's phase direction is neutral,
// so its monodromy keeps a multiplier at 1 up to the discretization's error;
// a circuit driven by a time-dependent source has none, and the period the
// solve converged is one the settle made up. It wraps solver.ErrNoConvergence.
var ErrNotAutonomous = fmt.Errorf("pss: orbit has no Floquet multiplier near 1 (is the circuit driven?): %w", solver.ErrNoConvergence)

// trivialMultiplierBound is how far from 1 the trivial Floquet multiplier of
// an orbit integrated at k steps per period may sit. The exact flow keeps it
// at 1; a fixed-step method moves it by its error over one period, at most
// first order in 1/k. On the 1N1P and 2N1P rings, BE, Trap and Gear2 keep it
// within 1.3/k for every k ≥ 16 (2e-6 at 1,024 Trap steps) and within 4.7/k
// at k = 6, so 8/k leaves room; the D latch's nearest multiplier sits 0.5
// from 1, outside the bound for every k ≥ 16.
func trivialMultiplierBound(k int) float64 { return 8 / float64(k) }

// nearestToOne returns the index of the multiplier nearest 1 and its distance.
func nearestToOne(mult []complex128) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, m := range mult {
		if d := cmplx.Abs(m - 1); d < bd {
			bd, best = d, i
		}
	}
	return best, bd
}

// checkTrivialMultiplier rejects a converged autonomous orbit at k steps per
// period whose multipliers hold none within trivialMultiplierBound(k) of 1.
// Multipliers the eigensolver could not compute (nil) are not checked.
func checkTrivialMultiplier(mult []complex128, k int) error {
	if len(mult) == 0 {
		return nil
	}
	_, d := nearestToOne(mult)
	if bound := trivialMultiplierBound(k); !(d <= bound) {
		return fmt.Errorf("%w (nearest multiplier %.3g from 1, bound %.3g)", ErrNotAutonomous, d, bound)
	}
	return nil
}
