// Netlist-driven flow: author the paper's ring oscillator as a SPICE-style
// deck, parse it, find its PSS and PPV, and ask the design tools whether a
// given SYNC drive stores a bit — all without touching the programmatic
// circuit builders.
package main

import (
	"context"
	"fmt"
	"log"

	phlogon "repro"
	"repro/internal/ppv"
	"repro/internal/pss"
)

const deck = `
* 3-stage ring oscillator, ALD1106/07 inverters, 4.7 nF loads (paper Fig. 3)
.rail vdd 3.0
.param cload=4.7n
Mn1 n1 n3 0   nmos model=ald1106
Mp1 n1 n3 vdd pmos model=ald1107
C1  n1 0 {cload}
Mn2 n2 n1 0   nmos model=ald1106
Mp2 n2 n1 vdd pmos model=ald1107
C2  n2 0 {cload}
Mn3 n3 n2 0   nmos model=ald1106
Mp3 n3 n2 vdd pmos model=ald1107
C3  n3 0 {cload}
.end
`

func main() {
	ctx := context.Background()
	ckt, err := phlogon.ParseNetlist(deck)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed deck:", sys.Describe())

	// Kick the oscillator off its unstable equilibrium and shoot for the PSS.
	x0 := make([]float64, sys.N)
	for i := range x0 {
		x0[i] = 1.5 + 1.2*float64(i%3-1)
	}
	sol, err := pss.ShootAutonomousCtx(ctx, sys, x0, pss.Options{GuessT: 1 / 9.6e3, StepsPerPeriod: 1024})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PSS: f0 = %.6g Hz, periodicity residual %.2g V\n", sol.F0, sol.Residual)

	p, err := ppv.FromSolutionCtx(ctx, sys, sol)
	if err != nil {
		log.Fatal(err)
	}
	n1 := ckt.NodeIndex("n1")
	fmt.Printf("PPV at n1: |V1| = %.4g, |V2| = %.4g\n",
		p.NodeSeries[n1].Magnitude(1), p.NodeSeries[n1].Magnitude(2))

	for _, amp := range []float64{20e-6, 60e-6, 120e-6} {
		m := phlogon.NewGAE(p, sol.F0*1.005, phlogon.Injection{
			Name: "SYNC", Node: n1, Amp: amp, Harmonic: 2,
		})
		fmt.Printf("SYNC %5.0f µA at 0.5%% detuning: SHIL lock predicted = %v\n",
			amp*1e6, m.WillLock())
	}
}
