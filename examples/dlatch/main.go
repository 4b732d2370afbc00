// D-latch design study (the paper's Sec. 4.1–4.2 flow): characterize bit
// storage (locking range over SYNC amplitude), choose the D input magnitude
// from the equilibrium sweep (one stable state must vanish, Fig. 10/11),
// verify the flip timing with GAE transients (Fig. 12), and finally
// cross-check one flip against SPICE-level transient simulation (Fig. 17's
// validation).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/cmplx"

	phlogon "repro"
	"repro/internal/gae"
	"repro/internal/phasemacro"
	"repro/internal/transient"
	"repro/internal/wave"
)

func main() {
	ctx := context.Background()
	_, sol, p, err := phlogon.RingPPVCtx(ctx, phlogon.DefaultRingConfig())
	if err != nil {
		log.Fatal(err)
	}
	latch := &phasemacro.Latch{P: p, Node: 0, Out: 0}
	cal, err := phasemacro.Calibrate(latch, 10e3)
	if err != nil {
		log.Fatal(err)
	}
	f1 := sol.F0 * 1.0004 // the generator sits near, not exactly at, f0
	dPhase := cmplx.Phase(p.Harmonic(0, 1))/(2*math.Pi) - 0.25

	// Stage 1 — bit storage: locking range vs SYNC amplitude (Fig. 7).
	fmt.Println("== bit storage (SHIL locking range)")
	m := phlogon.NewGAE(p, f1)
	cone, err := m.SweepSyncAmplitudeCtx(context.Background(), 0, 2, []float64{50e-6, 100e-6, 150e-6, 200e-6}, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range cone {
		fmt.Printf("  SYNC %6.0f µA → lock band width %7.4g Hz\n", pt.Amp*1e6, pt.F1Hi-pt.F1Lo)
	}

	// Stage 2 — bit flip: sweep D and find where one stable state vanishes
	// (Fig. 11); that is the minimum usable write amplitude.
	fmt.Println("\n== bit flip (D input sizing, SYNC = 120 µA)")
	base := phlogon.NewGAE(p, f1,
		phlogon.Injection{Name: "SYNC", Node: 0, Amp: 120e-6, Harmonic: 2, Phase: cal.SyncPhase},
		phlogon.Injection{Name: "D", Node: 0, Amp: 0, Harmonic: 1, Phase: dPhase},
	)
	threshold := math.Inf(1)
	sweep, err := base.SweepInjectionAmplitudeCtx(context.Background(), 1, gae.Linspace(0, 200e-6, 81), 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range sweep {
		if len(pt.Stable) == 1 {
			threshold = pt.Param
			break
		}
	}
	fmt.Printf("  write threshold: one stable state vanishes above D ≈ %.3g µA\n", threshold*1e6)

	// Stage 3 — timing: GAE transients at several write amplitudes
	// (Fig. 12). Note the strong slowdown just above the threshold.
	fmt.Println("\n== flip timing (GAE transients)")
	T1 := 1 / f1
	for _, da := range []float64{1.1 * threshold, 2 * threshold, 3 * threshold} {
		mm := base.With()
		mm.Injections[1].Amp = da
		pre := base.With()
		pre.Injections[1].Amp = da
		pre.Injections[1].Phase = dPhase + 0.5
		x0 := 0.5
		for _, e := range pre.StableEquilibria() {
			if gae.CircularDistance(e.Dphi, 0.5) < 0.2 {
				x0 = e.Dphi
			}
		}
		tr := mm.TransientCtx(context.Background(), x0, 0, 5000*T1, T1)
		fmt.Printf("  D = %6.1f µA → settles in %7.3f ms\n", da*1e6, tr.SettleTime(0.02)*1e3)
	}

	// Stage 4 — validation: one SPICE-level flip, phase measured from zero
	// crossings against the reference (the Fig. 17 experiment).
	fmt.Println("\n== SPICE-level validation (zero-crossing phase)")
	cfg := phlogon.DLatchConfig{
		Ring: phlogon.DefaultRingConfig(), F1: f1,
		SyncAmp: 120e-6, SyncPhase: cal.SyncPhase,
		DAmp: 3 * threshold, DPhase: dPhase + 0.5, DFlipTime: 40 * T1,
		DImpedance: 10e6, TGateRon: 1e3, TGateRoff: 100e9,
	}
	l, err := phlogon.BuildDLatch(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := phlogon.RunTransientCtx(ctx, l.Sys, l.KickStart(), 0, 120*T1, transient.Options{
		Method: transient.Trap, Step: T1 / 512,
	})
	if err != nil {
		log.Fatal(err)
	}
	sig, err := wave.New(res.T, res.Node(l.OutputIndex()))
	if err != nil {
		log.Fatal(err)
	}
	ref := wave.FromFunc(l.ReferenceWaveform(0), 0, 120*T1, len(res.T))
	pts := wave.PhaseVsReference(sig, ref, 1.5, T1)
	first, last := pts[len(pts)/4].Phi, pts[len(pts)-1].Phi
	fmt.Printf("  measured phase before flip: %.4f cycles; after: %.4f (Δ = %.4f)\n",
		first, last, math.Abs(last-first))
	if d := math.Abs(math.Abs(last-first) - 0.5); d > 0.05 {
		log.Fatalf("SPICE flip amount off by %.3g cycles", d)
	}
	fmt.Println("  SPICE-level flip confirms the half-cycle phase transition predicted by the GAE")
}
