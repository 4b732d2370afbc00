// Package pss computes periodic steady states of circuits. For autonomous
// (self-sustaining) oscillators the period is itself an unknown, so the
// shooting method solves the bordered system
//
//	x(T; x0) − x0 = 0      (n equations)
//	x0[0] − L = 0          (phase condition)
//
// for (x0, T) by Newton iteration, where L is the phase level (mid-rail; see
// phase.go) and the start sits on node 0's rising edge through it. The
// monodromy matrix ∂x(T)/∂x0 comes from the transient integrator's
// sensitivity propagation; its Floquet multipliers certify orbital stability
// (one multiplier pinned at 1, the rest inside the unit circle) and feed
// directly into the PPV extraction of package ppv.
//
// A frequency-domain (harmonic balance) refinement of the same orbit is
// provided in hb.go; the PPV-HB extraction path builds on it.
package pss

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/fourier"
	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/transient"
)

// Options tunes the shooting solver.
type Options struct {
	GuessT         float64 // initial period guess (required; see ringosc.EstimatedF0)
	StepsPerPeriod int     // fixed integration steps per period (default 512)
	MaxIter        int     // Newton iterations (default 30)
	Tol            float64 // ∞-norm tolerance on the periodicity residual, volts (default 1e-7)
	Method         transient.Method
	// SettleCycles integrates this many free-running cycles of GuessT
	// before shooting starts, to land near the limit cycle (default 7), at
	// min(StepsPerPeriod, 64) steps per period. The last of them is searched
	// for node 0's rising crossing of the phase level, where shooting starts.
	// A negative value skips the settle and the search: x0 must then already
	// sit near that crossing, as a previous Solution's X0 does.
	SettleCycles int
	// Backend selects the linear-algebra backend for the inner transient
	// integrations (corrector + monodromy propagation), where a shooting
	// solve spends essentially all of its linear-algebra time. The zero
	// value (Auto) picks by the Jacobian's density. The bordered Newton
	// update itself always runs dense: its Jacobian embeds the monodromy
	// matrix M − I, which is structurally dense for any connected circuit.
	Backend linalg.Backend
}

// Solution is a converged periodic steady state on a uniform grid.
type Solution struct {
	T0 float64 // period, s
	F0 float64 // 1/T0
	X0 linalg.Vec
	// Grid holds K+1 uniform times spanning [0, T0]; States[k] = x(Grid[k]).
	// States[K] ≈ States[0].
	Grid   []float64
	States []linalg.Vec
	// Monodromy is ∂x(T)/∂x(0) around the orbit.
	Monodromy *linalg.Mat
	// Multipliers are the Floquet (characteristic) multipliers, sorted by
	// decreasing magnitude; Multipliers[0] ≈ 1 for an autonomous oscillator.
	Multipliers []complex128
	// Residual is the final periodicity error.
	Residual float64
	// Iterations is the Newton count.
	Iterations int
}

// K returns the number of grid intervals.
func (s *Solution) K() int { return len(s.Grid) - 1 }

// NodeSeries returns the Fourier series (in normalized time t/T0) of free
// node k's PSS waveform, keeping maxHarm harmonics.
func (s *Solution) NodeSeries(k, maxHarm int) *fourier.Series {
	kk := s.K()
	samples := make([]float64, kk)
	for i := 0; i < kk; i++ {
		samples[i] = s.States[i][k]
	}
	return fourier.NewSeriesFromSamples(samples, maxHarm)
}

// StateAt interpolates the PSS state at an arbitrary time (t mod T0) from
// the grid (linear interpolation; use NodeSeries for spectral accuracy).
func (s *Solution) StateAt(t float64) linalg.Vec {
	tt := math.Mod(t, s.T0)
	if tt < 0 {
		tt += s.T0
	}
	k := s.K()
	pos := tt / s.T0 * float64(k)
	i := int(pos)
	if i >= k {
		i = k - 1
	}
	f := pos - float64(i)
	out := linalg.NewVec(len(s.X0))
	for j := range out {
		out[j] = s.States[i][j] + f*(s.States[i+1][j]-s.States[i][j])
	}
	return out
}

// ShootAutonomous finds the limit cycle of an autonomous circuit starting
// from the (non-equilibrium) state x0.
//
// ShootAutonomous is safe to call concurrently on one shared System: all
// mutable evaluation state lives in per-call workspaces.
func ShootAutonomous(sys *circuit.System, x0 linalg.Vec, opt Options) (*Solution, error) {
	return ShootAutonomousCtx(context.Background(), sys, x0, opt)
}

// ShootAutonomousCtx is ShootAutonomous with cancellation: the settle and
// shooting transients check ctx between integration steps. The circuit is
// shot as a one-lane batch (ShootAutonomousBatch), so a single circuit's
// solve is bit for bit its lane's in any batch.
func ShootAutonomousCtx(ctx context.Context, sys *circuit.System, x0 linalg.Vec, opt Options) (*Solution, error) {
	b, err := circuit.NewBatch([]*circuit.System{sys})
	if err != nil {
		return nil, err
	}
	defer diag.SpanFrom(ctx, "pss.shoot").End()
	sols, errs, err := ShootAutonomousBatch(ctx, b, x0, BatchShootOptions{
		GuessT:         []float64{opt.GuessT},
		StepsPerPeriod: opt.StepsPerPeriod,
		MaxIter:        opt.MaxIter,
		Tol:            opt.Tol,
		Method:         opt.Method,
		Backend:        opt.Backend,
		SettleCycles:   opt.SettleCycles,
	})
	if err != nil {
		return nil, err
	}
	return sols[0], errs[0]
}

// fixedPointSwing is the multiple of the periodicity tolerance a node must
// swing both ways for a trajectory to count as an oscillation.
const fixedPointSwing = 100

// ErrFixedPoint reports an autonomous shooting solve on a circuit that does
// not oscillate: its settle, or the orbit it converged, sits at or relaxes
// toward an equilibrium instead of a limit cycle. It wraps
// solver.ErrNoConvergence.
var ErrFixedPoint = fmt.Errorf("pss: converged orbit is a fixed point: %w", solver.ErrNoConvergence)

// checkOrbitSwing rejects a trajectory that does not oscillate: one on
// which no node both rises and falls by more than fixedPointSwing·tol. An
// equilibrium satisfies x(T) = x(0) for every T, so a shooting solve that
// settles onto one passes the periodicity test with whatever period it was
// handed and would report a frequency it never measured; and a settle still
// relaxing toward one moves each node one way only, however far, so a
// short settle classifies as a long one does. On a converged orbit each
// node rises and falls by its peak-to-peak swing. Shared by the converged
// orbit's check and the phase search; it allocates nothing when the
// trajectory passes.
func checkOrbitSwing(states []linalg.Vec, tol float64) error {
	swing := 0.0
	for j := range states[0] {
		lo, hi := states[0][j], states[0][j]
		rise, fall := 0.0, 0.0
		for _, x := range states[1:] {
			v := x[j]
			rise, fall = math.Max(rise, v-lo), math.Max(fall, hi-v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		swing = math.Max(swing, math.Min(rise, fall))
	}
	if limit := fixedPointSwing * tol; !(swing > limit) {
		return fmt.Errorf("%w (largest swing a node makes both ways %.3g V, limit %.3g V)", ErrFixedPoint, swing, limit)
	}
	return nil
}

// settlePeriod refines the period guess from node 0's recurrence over a whole
// settle: the first cycles' series (ts1, v1; empty when there were none)
// followed by the search run's, whose first point repeats their last.
func settlePeriod(ts1, v1, ts2, v2 []float64, guess float64) float64 {
	if len(ts1) > 0 {
		ts2, v2 = ts2[1:], v2[1:]
	}
	ts := append(ts1[:len(ts1):len(ts1)], ts2...)
	v := append(v1[:len(v1):len(v1)], v2...)
	if T, err := estimatePeriodFromSeries(ts, v, guess); err == nil {
		return T
	}
	return guess
}

// estimatePeriodFromSeries refines a period guess by measuring the spacing of
// rising crossings of node 0 (samples v at times ts) through its midpoint over
// the trailing half of a settle run, read from the lane's node recording.
func estimatePeriodFromSeries(ts, v []float64, guess float64) (float64, error) {
	if len(v) == 0 || len(ts) != len(v) {
		return 0, errors.New("pss: no recurrence found")
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	mid := (lo + hi) / 2
	var crossings []float64
	start := ts[len(ts)-1] / 2
	for i := 1; i < len(v); i++ {
		if ts[i] < start {
			continue
		}
		if v[i-1] < mid && v[i] >= mid {
			f := (mid - v[i-1]) / (v[i] - v[i-1])
			crossings = append(crossings, ts[i-1]+f*(ts[i]-ts[i-1]))
		}
	}
	if len(crossings) < 2 {
		return 0, errors.New("pss: no recurrence found")
	}
	T := (crossings[len(crossings)-1] - crossings[0]) / float64(len(crossings)-1)
	if T < guess/4 || T > guess*4 {
		return 0, fmt.Errorf("pss: recurrence period %.3g far from guess %.3g", T, guess)
	}
	return T, nil
}

// StabilityReport classifies an autonomous orbit from its Floquet
// multipliers: the multiplier nearest 1 is taken as the trivial one, and the
// largest remaining magnitude is returned. The orbit is orbitally stable iff
// that magnitude is < 1 and the trivial multiplier lies within the
// discretization's bound of 1 (an orbit without one is not autonomous).
func (s *Solution) StabilityReport() (trivial complex128, largestOther float64, stable bool) {
	if len(s.Multipliers) == 0 {
		return 0, math.NaN(), false
	}
	best, bd := nearestToOne(s.Multipliers)
	trivial = s.Multipliers[best]
	largestOther = 0
	for i, m := range s.Multipliers {
		if i == best {
			continue
		}
		if a := cmplx.Abs(m); a > largestOther {
			largestOther = a
		}
	}
	return trivial, largestOther, largestOther < 1 && bd <= trivialMultiplierBound(s.K())
}
