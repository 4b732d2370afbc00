// Command phlogon-ppv extracts a PPV phase macromodel from an oscillator
// netlist: it finds the periodic steady state by shooting, runs the
// time-domain adjoint extraction, optionally cross-checks with the
// frequency-domain PPV-HB path, and prints the per-node harmonic table the
// GAE analyses consume.
//
// Usage:
//
//	phlogon-ppv -deck ring.cir -f0 9.6k [-node n1] [-hb] [-harms 8]
//	            [-kick n1=2.7,n2=0.3,n3=1.5] [-csv ppv.csv]
//	            [-metrics|-metrics-json] [-cpuprofile f] [-memprofile f]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/cmplx"
	"os"
	"strings"

	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/wave"
)

func main() {
	deck := flag.String("deck", "", "netlist file (required)")
	f0guess := flag.String("f0", "", "free-running frequency guess (required, SPICE units)")
	node := flag.String("node", "", "node whose PPV harmonics to print (default: all)")
	hb := flag.Bool("hb", false, "also extract via harmonic balance (PPV-HB) and compare")
	harms := flag.Int("harms", 8, "harmonics to print")
	kick := flag.String("kick", "", "initial state node=V,... (default: staggered kick)")
	csvOut := flag.String("csv", "", "write the PPV waveforms as CSV")
	df = diag.AddFlags(flag.CommandLine)
	flag.Parse()

	if *deck == "" || *f0guess == "" {
		fmt.Fprintln(os.Stderr, "phlogon-ppv: -deck and -f0 are required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, err := df.Start(context.Background())
	if err != nil {
		fatal(err)
	}
	defer df.Stop()
	src, err := os.ReadFile(*deck)
	if err != nil {
		fatal(err)
	}
	ckt, err := netlist.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		fatal(err)
	}
	f0, err := netlist.ParseValue(*f0guess)
	if err != nil {
		fatal(err)
	}
	x0 := linalg.NewVec(sys.N)
	if *kick == "" {
		for i := range x0 {
			x0[i] = 1.5 + 1.2*float64(i%3-1) // staggered around mid-rail
		}
	} else {
		for _, kv := range strings.Split(*kick, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad -kick entry %q", kv))
			}
			idx := ckt.NodeIndex(strings.TrimSpace(parts[0]))
			if idx < 0 {
				fatal(fmt.Errorf("-kick: unknown node %q", parts[0]))
			}
			v, err := netlist.ParseValue(parts[1])
			if err != nil {
				fatal(err)
			}
			x0[idx] = v
		}
	}

	sol, err := pss.ShootAutonomousCtx(ctx, sys, x0, pss.Options{GuessT: 1 / f0, StepsPerPeriod: 1024})
	if err != nil {
		fatal(err)
	}
	trivial, largest, stable := sol.StabilityReport()
	fmt.Printf("PSS: f0 = %.6g Hz (T0 = %.6g s), residual %.3g V, %d Newton iterations\n",
		sol.F0, sol.T0, sol.Residual, sol.Iterations)
	fmt.Printf("Floquet: trivial multiplier %.6g%+.3gi, largest other |µ| = %.4g (orbitally stable: %v)\n",
		real(trivial), imag(trivial), largest, stable)

	p, err := ppv.FromSolutionCtx(ctx, sys, sol)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("PPV: periodicity error %.3g, normalization spread %.3g\n\n",
		p.PeriodicityError(), p.NormError)

	printNode := func(idx int) {
		fmt.Printf("node %s — PPV harmonics (current injection → dα/dt):\n", ckt.NodeName(idx))
		fmt.Printf("  %3s %14s %14s\n", "m", "|V_m| [1/(A·s)]", "∠V_m [cycles]")
		for m := 0; m <= *harms; m++ {
			cm := p.Harmonic(idx, m)
			fmt.Printf("  %3d %14.5g %14.5g\n", m, cmplx.Abs(cm), cmplx.Phase(cm)/(2*3.141592653589793))
		}
	}
	if *node != "" {
		idx := ckt.NodeIndex(*node)
		if idx < 0 {
			fatal(fmt.Errorf("unknown node %q", *node))
		}
		printNode(idx)
	} else {
		for i := 0; i < sys.N; i++ {
			printNode(i)
		}
	}

	if *hb {
		hbsol := pss.HBFromSolution(sys, sol, 20)
		if err := pss.RefineHBCtx(ctx, sys, hbsol, 12, 1e-10); err != nil {
			fatal(fmt.Errorf("HB refinement: %w", err))
		}
		fmt.Printf("\nHB: refined f0 = %.6g Hz, residual %.3g A\n", hbsol.F0, hbsol.Residual)
		coefs, err := hbsol.PPVHB()
		if err != nil {
			fatal(err)
		}
		fd := ppv.FromHBCoefficients(sol, coefs)
		fmt.Println("PPV-HB vs time-domain (node 0, first 4 harmonics):")
		for m := 0; m <= 3; m++ {
			a, b := p.Harmonic(0, m), fd.Harmonic(0, m)
			fmt.Printf("  m=%d  TD %.5g∠%.4g   HB %.5g∠%.4g   |Δ| %.3g\n",
				m, cmplx.Abs(a), cmplx.Phase(a), cmplx.Abs(b), cmplx.Phase(b), cmplx.Abs(a-b))
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cols := map[string][]float64{}
		var names []string
		ts := make([]float64, 257)
		for i := range ts {
			ts[i] = sol.T0 * float64(i) / 256
		}
		for n := 0; n < sys.N; n++ {
			name := "ppv_" + ckt.NodeName(n)
			names = append(names, name)
			col := make([]float64, len(ts))
			for i, tt := range ts {
				col[i] = p.At(n, tt)
			}
			cols[name] = col
		}
		if err := wave.MultiCSV(f, ts, cols, names); err != nil {
			fatal(err)
		}
		fmt.Printf("\nPPV waveforms written to %s\n", *csvOut)
	}
}

// df is package-level so fatal can flush profiles/metrics before exiting.
var df *diag.Flags

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phlogon-ppv:", err)
	if df != nil {
		df.Stop()
	}
	os.Exit(1)
}
