// Fully phase-based latches (the paper's Fig. 13/14 design study): the SR
// latch whose inputs pass through a weighted majority gate, and the
// majority-clocked D latch MAJ(D, CLK, Q). The weight study shows why a
// conventional equal-weight majority gate is unsuitable — S/R mismatch
// overwrites the stored bit — while w = (0.01, 0.01, 1) tolerates mismatch
// yet still flips when S and R agree at Vdd/2.
package main

import (
	"context"
	"fmt"
	"log"

	phlogon "repro"
	"repro/internal/gae"
	"repro/internal/phlogic"
)

func main() {
	_, sol, p, err := phlogon.RingPPVCtx(context.Background(), phlogon.DefaultRingConfig())
	if err != nil {
		log.Fatal(err)
	}

	const syncAmp = 6e-6
	uniform, err := phlogic.NewSRLatch(p, 0, 0, sol.F0, syncAmp, 10e3, [3]float64{1, 1, 1})
	if err != nil {
		log.Fatal(err)
	}
	weighted, err := phlogic.NewSRLatch(p, 0, 0, sol.F0, syncAmp, 10e3, [3]float64{0.01, 0.01, 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== SR latch weight study (Fig. 14)")
	fmt.Printf("%26s %14s %14s\n", "", "w=(1,1,1)", "w=(0.01,0.01,1)")
	check := func(name string, f func(l *phlogic.SRLatch) bool) {
		fmt.Printf("%26s %14v %14v\n", name, f(uniform), f(weighted))
	}
	check("flips when S=R=1.5 V", func(l *phlogic.SRLatch) bool { return l.FlipsWhenSet(1.5) })
	for _, mm := range []float64{0.02, 0.05, 0.10} {
		mm := mm
		check(fmt.Sprintf("holds at %.0f%% mismatch", mm*100),
			func(l *phlogic.SRLatch) bool { return l.HoldsUnderMismatch(1.5, mm) })
	}
	fmt.Println("\nstable phases vs |S|=|R| (same phase, weighted gate):")
	pts, err := weighted.SweepMagnitudeCtx(context.Background(), gae.Linspace(0, 1.5, 7), false, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range pts {
		fmt.Printf("  |S|=%4.2f V → stable Δφ* %v\n", pt.Param, pt.Stable)
	}

	fmt.Println("\n== majority-clocked D latch MAJ(D, CLK, Q) (Fig. 13)")
	bits := []bool{true, false, true, true, false}
	dl, err := phlogic.NewPhaseDLatch(p, 0, 0, sol.F0, bits, phlogic.PhaseDLatchConfig{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := dl.Run(false, float64(len(bits)), 0.25)
	if err != nil {
		log.Fatal(err)
	}
	got := dl.ReadBits(res, len(bits))
	fmt.Printf("data in:  %v\nlatched:  %v\n", bits, got)
	for i := range bits {
		if got[i] != bits[i] {
			log.Fatalf("bit %d wrong", i)
		}
	}
	fmt.Println("every bit loaded through the OR-then-AND action of one clock cycle —")
	fmt.Println("no level-encoded signal anywhere in the latch.")
}
