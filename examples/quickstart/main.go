// Quickstart: the full designer pipeline of the paper on its ring-oscillator
// latch — build the circuit, find its periodic steady state, extract the PPV
// phase macromodel, and use Generalized Adlerization to predict whether a
// SYNC injection will store a phase-logic bit (SHIL), at what phases, and
// over what locking range.
package main

import (
	"context"
	"fmt"
	"log"

	phlogon "repro"
)

func main() {
	ctx := context.Background()

	// 1. The paper's vehicle: 3-stage ring, ALD1106/07 inverters, 4.7 nF
	// stage loads, free-running near 9.6 kHz (Fig. 3). The Engine memoizes
	// the expensive artifacts: every later request for this configuration —
	// from any goroutine — reuses this one extraction.
	eng := phlogon.NewEngine(phlogon.EngineOptions{})
	ring, sol, p, err := eng.RingPPV(ctx, phlogon.DefaultRingConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring oscillator: %s\n", ring.Sys.Describe())
	fmt.Printf("PSS by shooting: f0 = %.5g Hz (period %.4g s), residual %.2g V\n",
		sol.F0, sol.T0, sol.Residual)
	trivial, largest, stable := sol.StabilityReport()
	fmt.Printf("Floquet: trivial multiplier ≈ %.4g, largest other |µ| = %.3g → orbitally stable: %v\n\n",
		real(trivial), largest, stable)

	// 2. The PPV phase macromodel (eq. 3): the latch's phase sensitivity to
	// injected currents, per node and harmonic.
	fmt.Printf("PPV harmonics at the injection node n1: |V1| = %.4g, |V2| = %.4g\n",
		p.NodeSeries[0].Magnitude(1), p.NodeSeries[0].Magnitude(2))

	// 3. Generalized Adlerization with a SYNC current at 2·f1 (eq. 4/5):
	// will sub-harmonic injection locking happen, and where are the two
	// stable phases that encode a logic bit?
	f1 := sol.F0
	m := phlogon.NewGAE(p, f1, phlogon.Injection{
		Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2,
	})
	if !m.WillLock() {
		log.Fatal("SHIL not predicted — increase the SYNC amplitude")
	}
	d0, d1, err := m.SHILPhases()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SHIL predicted: stable phases Δφ = %.4f and %.4f cycles (bit 1 / bit 0)\n", d0, d1)

	// 4. Locking range (Fig. 7): how much detuning the bit survives.
	lo, hi := m.LockingBand()
	fmt.Printf("locking range at 100 µA SYNC: f1 ∈ [%.5g, %.5g] Hz (width %.3g Hz)\n",
		lo, hi, hi-lo)

	// 5. Bit-flip timing (Fig. 12): a D input at f1, phase-aligned with the
	// logic-1 lock, flips the stored bit from the logic-0 lock.
	dPhase := d0 + m.PhaseOfHarmonic(0, 1) - 0.25
	flip := m.With(phlogon.Injection{Name: "D", Node: 0, Amp: 150e-6, Harmonic: 1, Phase: dPhase})
	tr := flip.TransientCtx(context.Background(), d1-0.003, 0, 3000/f1, 1/f1)
	fmt.Printf("bit flip with a 150 µA D input: %.4f → %.4f cycles, settles in %.3g ms (%.0f cycles)\n",
		d1, tr.Final(), tr.SettleTime(0.02)*1e3, tr.SettleTime(0.02)*f1)

	// 6. The engine made step 1 a one-time cost: an identical request is now
	// a cache hit returning the same shared artifact.
	if _, _, _, err := eng.RingPPV(ctx, phlogon.DefaultRingConfig()); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("\nengine: %d misses, %d hits, %d artifacts resident (%.1f KiB)\n",
		st.Misses, st.Hits, st.Entries, float64(st.Bytes)/1024)
}
