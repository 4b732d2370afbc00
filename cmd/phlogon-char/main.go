// Command phlogon-char characterizes a ring-oscillator latch design beyond
// the nominal point: phase noise metrics and SHIL noise immunity (package
// noise), and process-variability sensitivities / Monte-Carlo corners
// (package variation).
//
// Usage:
//
//	phlogon-char noise [-sync 100u] [-d 5e-3] [-runs 6] [-2n1p] [-workers n]
//	phlogon-char sens  [-2n1p] [-workers n]
//	phlogon-char mc    [-n 25] [-seed 1] [-sampler pseudo|sobol] [-lanes 8] [-2n1p] [-workers n]
//	phlogon-char yield [-n 25] [-seed 1] [-sampler pseudo|sobol] [-lanes 8] [-d 5e-3] [-ber 1e-2] [-batch 64] [-2n1p] [-workers n]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/gae"
	"repro/internal/netlist"
	"repro/internal/noise"
	"repro/internal/phasemacro"
	"repro/internal/ringosc"
	"repro/internal/variation"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	syncAmp := fs.String("sync", "100u", "SYNC amplitude for the locked-latch studies")
	dStr := fs.Float64("d", 5e-3, "Δφ diffusion for the stochastic study, cycles²/s")
	use2n1p := fs.Bool("2n1p", false, "use the 2N1P ring")
	nMC := fs.Int("n", 25, "Monte-Carlo samples")
	seed := fs.Int64("seed", 1, "Monte-Carlo / ensemble seed")
	runs := fs.Int("runs", 6, "noise: stochastic ensemble members")
	samplerName := fs.String("sampler", "pseudo", "mc/yield: corner sampler (pseudo|sobol)")
	berLanes := noise.DefaultEnsembleLanes
	if cmd == "yield" {
		fs.IntVar(&berLanes, "batch", berLanes, "yield: stochastic SoA lane width per ensemble batch")
	}
	lanes := fs.Int("lanes", variation.DefaultBatchLanes, "mc/yield: corners per batched PSS solve")
	berTarget := fs.Float64("ber", 1e-2, "yield: acceptable BER per corner")
	workers := fs.Int("workers", 0, "worker pool size (0 = NumCPU)")
	df = diag.AddFlags(fs)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, err := df.Start(sigCtx)
	if err != nil {
		fatal(err)
	}
	defer df.Stop()
	cfg := ringosc.DefaultConfig()
	if *use2n1p {
		cfg = ringosc.Config2N1P()
	}

	switch cmd {
	case "noise":
		sv, err := netlist.ParseValue(*syncAmp)
		if err != nil {
			fatal(err)
		}
		eng := engine.New(engine.Options{Workers: *workers})
		_, sol, p, err := eng.RingPPV(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		cal, err := phasemacro.Calibrate(&phasemacro.Latch{P: p, Node: 0, Out: 0}, 10e3)
		if err != nil {
			fatal(err)
		}
		src := []noise.Source{{Node: 0, PSD: noise.ThermalCurrentPSD(1e3, 300)}}
		fmt.Printf("f0 = %.5g Hz\n", sol.F0)
		fmt.Printf("thermal (1 kΩ @ 300 K) phase diffusion c = %.3g s²/s\n", noise.AlphaDiffusion(p, src))
		fmt.Printf("Lorentzian linewidth = %.3g Hz, RMS jitter/cycle = %.3g s\n",
			noise.Linewidth(p, src), noise.JitterPerCycle(p, src))
		locked := gae.NewModel(p, sol.F0,
			gae.Injection{Name: "SYNC", Node: 0, Amp: sv, Harmonic: 2, Phase: cal.SyncPhase})
		lam := noise.LockStiffness(locked, 0)
		fmt.Printf("\nSHIL lock stiffness λ = %.4g 1/s at SYNC = %s\n", lam, *syncAmp)
		fmt.Printf("confinement variance at D=%g: predicted %.3g cycles²\n",
			*dStr, noise.ConfinementVariance(locked, 0, *dStr))
		ens, err := noise.StochasticEnsemble(ctx, locked, 0, *dStr, 0, 1, 1e-4, *seed, *runs, *workers)
		if err != nil {
			fatal(err)
		}
		hops := 0
		for _, res := range ens {
			hops += res.Hops
		}
		fmt.Printf("stochastic check: %d basin hops over %d s of simulated operation\n", hops, *runs)
	case "sens":
		sens, err := variation.SensitivitiesEng(ctx, variation.NewEngine(*workers), cfg, variation.StandardParams(), *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s %12s %12s %12s %12s   (relative change per +1σ)\n",
			"param", "f0", "|V1|", "|V2|", "lock width")
		for _, s := range sens {
			fmt.Printf("%-8s %12.4g %12.4g %12.4g %12.4g\n", s.Param, s.DF0, s.DV1, s.DV2, s.DLockWidth)
		}
	case "mc":
		veng := variation.NewEngine(*workers)
		params := variation.StandardParams()
		smp := newSampler(*samplerName, len(params), *seed)
		samples, _, err := variation.MonteCarloBatchEng(ctx, veng, cfg, params, *nMC, smp, *lanes, *workers)
		if err != nil {
			fatal(err)
		}
		st := variation.Summarize(samples)
		fmt.Printf("%d Monte-Carlo samples (seed %d, %s sampler):\n", len(samples), *seed, smp.Name())
		fmt.Printf("  f0:         mean %.5g Hz, rel. std %.3g\n", st.MeanF0, st.RelStdF0)
		fmt.Printf("  lock width: mean %.4g Hz, rel. std %.3g (SYNC 100 µA)\n", st.MeanLockWidth, st.RelStdLockWidth)
		fmt.Printf("  |V2|:       mean %.4g,    rel. std %.3g\n", st.MeanV2, st.RelStdV2)
		nom, err := variation.EvaluateEng(ctx, veng, cfg)
		if err != nil {
			fatal(err)
		}
		worst, req := variation.WorstCaseDetuning(samples, nom.F0, nom.V2)
		fmt.Printf("  worst-case |f0 − f1|: %.4g Hz → SYNC ≥ %.4g µA locks every sampled corner\n",
			worst, req*1e6)
	case "yield":
		// Parametric BER yield: sample process corners, evaluate them through
		// the batched PSS pipeline, then count Kramers hops of each corner's
		// SHIL-locked latch under phase diffusion D. A corner passes when its
		// hop-counting BER stays at or below the target.
		veng := variation.NewEngine(*workers)
		params := variation.StandardParams()
		smp := newSampler(*samplerName, len(params), *seed)
		_, corners, err := variation.MonteCarloBatchEng(ctx, veng, cfg, params, *nMC, smp, *lanes, *workers)
		if err != nil {
			fatal(err)
		}
		// Always collect metrics for this phase: the lane-occupancy report
		// below needs the stochastic-batch counters even when -metrics is off.
		met := diag.FromContext(ctx)
		if met == nil {
			met = diag.New()
			ctx = diag.WithMetrics(ctx, met)
		}
		opt := noise.BEROptions{TBit: 0.05, Bits: 20, Members: *runs, Dt: 1e-4, Seed: *seed,
			Workers: *workers, Lanes: berLanes}
		results, err := variation.CornerBERs(ctx, corners, *dStr, opt)
		if err != nil {
			fatal(err)
		}
		bers := make([]float64, len(results))
		worst := 0.0
		for i, res := range results {
			bers[i] = res.BER
			if res.BER > worst {
				worst = res.BER
			}
		}
		y := noise.Yield(bers, *berTarget)
		fmt.Printf("%d corners (seed %d, %s sampler), D = %g cycles²/s, %d bit-slots each:\n",
			len(corners), *seed, smp.Name(), *dStr, opt.Members*opt.Bits)
		fmt.Printf("  worst corner BER %.3g, target %.3g\n", worst, *berTarget)
		fmt.Printf("  parametric yield: %.1f %% of corners meet the BER target\n", 100*y)
		if sw := met.Get(diag.StochBatchSteps); sw > 0 {
			// A batch is as wide as -batch, or the whole ensemble when that
			// is smaller.
			width := berLanes
			if width <= 0 {
				width = noise.DefaultEnsembleLanes
			}
			fmt.Printf("  stochastic lanes: %d SoA sweeps, mean occupancy %.1f of %d lanes, %d compiled g(Δφ) kernels\n",
				sw, float64(met.Get(diag.StochBatchLaneSteps))/float64(sw), min(width, opt.Members),
				met.Get(diag.CompiledGCompiles))
		}
	default:
		usage()
	}
}

// newSampler resolves the -sampler flag for the given parameter count.
func newSampler(name string, nParams int, seed int64) variation.Sampler {
	switch name {
	case "pseudo":
		return variation.PseudoSampler{Seed: seed}
	case "sobol":
		s, err := variation.NewSobolSampler(nParams, seed)
		if err != nil {
			fatal(err)
		}
		return s
	default:
		fatal(fmt.Errorf("unknown sampler %q (want pseudo or sobol)", name))
		return nil
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: phlogon-char {noise|sens|mc|yield} [flags]")
	os.Exit(2)
}

// df is package-level so fatal can flush profiles/metrics before exiting.
var df *diag.Flags

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phlogon-char:", err)
	if df != nil {
		df.Stop()
	}
	os.Exit(1)
}
