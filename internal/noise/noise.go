// Package noise quantifies the paper's motivating claim — "phase encoding
// offers better noise immunity compared with level-based encoding" — using
// the same PPV machinery as the deterministic tools.
//
// Theory (Demir–Mehrotra–Roychowdhury): stationary white current noise
// sources injected into oscillator nodes make the phase α(t) a diffusion
// process with variance c·t, where
//
//	c = (1/T₀) ∫₀^{T₀} Σₖ VIₖ(t)²·Sₖ dt
//
// (Sₖ the one-sided PSD of the current noise at node k, A²/Hz). A free
// oscillator therefore loses phase information linearly in time. Under SHIL
// the GAE adds the restoring drift f0·g(Δφ); an Ornstein–Uhlenbeck balance
// confines the phase to variance ≈ D/(2λ) around the lock (D the Δφ
// diffusion in cycles²/s, λ = −f0·g′ the lock stiffness), and bit errors
// require rare Kramers hops over the saddle. StochasticTransient simulates
// exactly this.
package noise

import (
	"context"
	"math"

	"repro/internal/diag"
	"repro/internal/gae"
	"repro/internal/ppv"
)

// Source is a white current-noise source attached to an oscillator node.
type Source struct {
	Node int
	// PSD is the one-sided current noise density, A²/Hz. For a resistor R
	// at temperature T: 4kT/R; for a MOSFET in saturation: ~4kTγ·gm.
	PSD float64
}

// ThermalCurrentPSD returns the Johnson current-noise density 4kT/R.
func ThermalCurrentPSD(r, tempK float64) float64 {
	const kB = 1.380649e-23
	return 4 * kB * tempK / r
}

// AlphaDiffusion computes the phase-diffusion coefficient c (s²/s) of the
// oscillator's time-phase α for the given noise sources, by averaging
// VIₖ(t)²·Sₖ over one period.
func AlphaDiffusion(p *ppv.PPV, sources []Source) float64 {
	const n = 512
	sum := 0.0
	for i := 0; i < n; i++ {
		t := p.T0 * float64(i) / n
		for _, s := range sources {
			v := p.At(s.Node, t)
			sum += v * v * s.PSD
		}
	}
	return sum / n
}

// Linewidth returns the Lorentzian full-width half-maximum (Hz) of the
// oscillator spectrum implied by the α diffusion: FWHM = 2π·f0²·c.
func Linewidth(p *ppv.PPV, sources []Source) float64 {
	return 2 * math.Pi * p.F0 * p.F0 * AlphaDiffusion(p, sources)
}

// JitterPerCycle returns the RMS period jitter (s) accumulated over one
// cycle: sqrt(c·T0).
func JitterPerCycle(p *ppv.PPV, sources []Source) float64 {
	return math.Sqrt(AlphaDiffusion(p, sources) * p.T0)
}

// StochasticResult is a noisy phase trajectory plus hop statistics.
type StochasticResult struct {
	T    []float64
	Dphi []float64
	// Hops counts transitions between the two SHIL lock basins (bit errors
	// for a storage latch).
	Hops int
}

// Var returns the variance of Δφ over the trailing half of the trajectory
// relative to its mean (meaningful when the phase is confined).
func (r *StochasticResult) Var() float64 {
	n := len(r.Dphi)
	if n < 4 {
		return 0
	}
	tail := r.Dphi[n/2:]
	mean := 0.0
	for _, x := range tail {
		mean += x
	}
	mean /= float64(len(tail))
	v := 0.0
	for _, x := range tail {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(tail))
}

// StochasticTransient integrates the GAE with additive phase diffusion D
// (cycles²/s) by Euler–Maruyama: dΔφ = RHS·dt + √(D·dt)·ξ. The RNG is
// seeded explicitly so runs are reproducible. dt is in seconds.
//
// The time grid is indexed by an integer step count, t = t0 + k·dt, never by
// floating-point accumulation: a `t += dt` loop drifts by one ulp per step,
// which for grids like [0, 0.7] at dt = 0.1 silently drops the final sample
// and makes the member length depend on (t0, t1, dt) rounding. Hops counts
// basin transitions along the recorded trajectory with hysteresis (see
// CountHops): a transition registers only once Δφ penetrates within HopBand
// of the new basin centre.
//
// It is a one-lane StochasticBatch on the compiled model, so a trajectory
// is bit-identical to the batch lane with the same seed.
func StochasticTransient(m *gae.Model, dphi0 float64, d float64, t0, t1, dt float64, seed int64) *StochasticResult {
	// The batch fails only on cancellation, and this context is never
	// cancelled.
	res, _ := StochasticBatch(context.TODO(), m.Compile(), []int64{seed}, BatchOptions{
		Dphi0: dphi0, D: d, T0: t0, T1: t1, Dt: dt, Record: true,
	})
	return res[0]
}

// StochasticEnsemble runs n independent stochastic realizations on up to
// workers goroutines (workers <= 0 means one per CPU). Member i is seeded
// with parallel.SubSeed(seed, i) — a pure function of (seed, i) — so the
// ensemble is bit-identical at any worker count, including workers = 1, and
// member i matches StochasticTransient with the derived seed bit for bit.
// Members run through the SoA batched stepper (StochasticBatch) in
// DefaultEnsembleLanes-wide groups. On cancellation the partial ensemble is
// returned with ctx.Err(); members that did not run are nil.
func StochasticEnsemble(ctx context.Context, m *gae.Model, dphi0, d, t0, t1, dt float64, seed int64, n, workers int) ([]*StochasticResult, error) {
	defer diag.SpanFrom(ctx, "noise.ensemble").End()
	return batchedEnsemble(ctx, m, BatchOptions{Dphi0: dphi0, D: d, T0: t0, T1: t1, Dt: dt, Record: true},
		seed, n, workers, DefaultEnsembleLanes)
}

// nearestBasin maps a phase to the index of the nearest half-cycle basin
// centre (…, 0, ½, 1, …), so consecutive indices are distinct logic states.
func nearestBasin(x float64) int {
	return int(math.Round(x * 2))
}

// HopBand is the half-width, in cycles, of the inner capture band around a
// basin centre. A trajectory only commits to a new basin — and counts a hop
// — once it comes within HopBand of the new centre. Without this hysteresis
// a trajectory dithering around the basin midpoint (±0.25 cycles) registers
// a hop on every midpoint crossing, inflating Hops and any BER built on it.
const HopBand = 0.15

// hopCounter classifies a phase trajectory into half-cycle basins with
// hysteresis and counts committed transitions.
type hopCounter struct {
	basin int
	hops  int
}

// observe feeds the next trajectory sample. The current basin is retained
// until the phase penetrates within HopBand of a different basin's centre.
func (h *hopCounter) observe(x float64) {
	nb := nearestBasin(x)
	if nb == h.basin {
		return
	}
	if math.Abs(x-0.5*float64(nb)) <= HopBand {
		h.hops++
		h.basin = nb
	}
}

// CountHops counts committed basin transitions along a recorded phase
// trajectory (cycles), using the same hysteresis rule as
// StochasticTransient: starting from the basin nearest dphi[0], a hop
// registers only when the phase enters the ±HopBand inner band of a new
// basin. CountHops(res.Dphi) reproduces res.Hops exactly.
func CountHops(dphi []float64) int {
	if len(dphi) == 0 {
		return 0
	}
	hc := hopCounter{basin: nearestBasin(dphi[0])}
	for _, x := range dphi {
		hc.observe(x)
	}
	return hc.hops
}

// LockStiffness returns λ = −f0·g′(Δφ*) at the model's stable lock nearest
// dphi (1/s); the OU-confinement variance prediction is D/(2λ).
func LockStiffness(m *gae.Model, dphi float64) float64 {
	best, bd := 0.0, math.Inf(1)
	for _, e := range m.StableEquilibria() {
		if d := gae.CircularDistance(e.Dphi, dphi); d < bd {
			bd, best = d, e.GPrime
		}
	}
	return -m.P.F0 * best
}

// ConfinementVariance is the OU prediction D/(2λ) for the stationary phase
// variance under lock.
func ConfinementVariance(m *gae.Model, dphi, d float64) float64 {
	lam := LockStiffness(m, dphi)
	if lam <= 0 {
		return math.Inf(1)
	}
	return d / (2 * lam)
}
