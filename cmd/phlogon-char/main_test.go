package main_test

import (
	"testing"

	"repro/internal/cmdtest"
)

func TestBadSubcommandExit2(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-char")
	for _, args := range [][]string{nil, {"bogus"}} {
		res := cmdtest.Run(t, bin, "", args...)
		if res.ExitCode != 2 {
			t.Errorf("args %v: exit %d, want 2\nstderr: %s", args, res.ExitCode, res.Stderr)
		}
	}
}

func TestNoiseSubcommand(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-char")
	res := cmdtest.Run(t, bin, "", "noise", "-runs", "1")
	if res.ExitCode != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", res.ExitCode, res.Stdout, res.Stderr)
	}
	cmdtest.MustContain(t, res.Stdout, "f0 =", "SHIL lock stiffness")
}

func TestMCSubcommand(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-char")
	res := cmdtest.Run(t, bin, "", "mc", "-n", "2", "-lanes", "2")
	if res.ExitCode != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", res.ExitCode, res.Stdout, res.Stderr)
	}
	cmdtest.MustContain(t, res.Stdout, "2 Monte-Carlo samples (seed 1, pseudo sampler):",
		"f0:", "lock width:", "|V2|:", "worst-case |f0 − f1|:")
}

func TestYieldSubcommand(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-char")
	res := cmdtest.Run(t, bin, "", "yield", "-n", "2", "-runs", "2")
	if res.ExitCode != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", res.ExitCode, res.Stdout, res.Stderr)
	}
	cmdtest.MustContain(t, res.Stdout, "2 corners (seed 1, pseudo sampler)", "40 bit-slots each",
		"worst corner BER", "parametric yield:", "stochastic lanes:", "mean occupancy 2.0 of 2 lanes")
}

// The per-corner Monte Carlo and the scalar stochastic pipeline are gone:
// the flags that chose them are refused.
func TestRemovedFlagsExit2(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-char")
	for _, args := range [][]string{{"mc", "-batch"}, {"yield", "-scalar"}} {
		res := cmdtest.Run(t, bin, "", args...)
		if res.ExitCode != 2 {
			t.Errorf("args %v: exit %d, want 2\nstderr: %s", args, res.ExitCode, res.Stderr)
		}
	}
}
