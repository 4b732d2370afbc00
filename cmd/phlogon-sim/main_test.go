package main_test

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cmdtest"
	"repro/internal/netlist"
	"repro/internal/solver"
)

func TestMissingDeckExit2(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-sim")
	for _, args := range [][]string{nil, {"-stop", "1m"}} {
		res := cmdtest.Run(t, bin, "", args...)
		if res.ExitCode != 2 {
			t.Errorf("args %v: exit %d, want 2\nstderr: %s", args, res.ExitCode, res.Stderr)
		}
	}
}

func TestUnreadableDeckExit1(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-sim")
	res := cmdtest.Run(t, bin, "", "-deck", "does-not-exist.cir")
	if res.ExitCode != 1 {
		t.Errorf("exit %d, want 1\nstderr: %s", res.ExitCode, res.Stderr)
	}
}

func TestTransientToCSV(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-sim")
	deck := cmdtest.WriteRingDeck(t)
	dir := filepath.Dir(deck)
	res := cmdtest.Run(t, bin, dir, "-deck", deck,
		"-stop", "0.1m", "-step", "1u",
		"-ic", "n1=2.7,n2=0.3,n3=1.5", "-o", "sim.csv")
	if res.ExitCode != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", res.ExitCode, res.Stdout, res.Stderr)
	}
	cmdtest.MustContain(t, res.Stderr, "steps", "Newton iterations")
	out := filepath.Join(dir, "sim.csv")
	cmdtest.MustExist(t, out)
	cmdtest.MustContain(t, cmdtest.ReadFile(t, out), "t,", "n1")
}

// TestDefaultStartsFromDCPoint runs the default path, without -ic: the run
// starts from the deck's DC operating point, so the CSV's t = 0 row is that
// point to print precision (9 significant digits).
func TestDefaultStartsFromDCPoint(t *testing.T) {
	bin := cmdtest.Build(t, "./cmd/phlogon-sim")
	deck := cmdtest.WriteRingDeck(t)
	dir := filepath.Dir(deck)
	res := cmdtest.Run(t, bin, dir, "-deck", deck, "-stop", "10u", "-step", "1u", "-o", "sim.csv")
	if res.ExitCode != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", res.ExitCode, res.Stdout, res.Stderr)
	}
	lines := strings.Split(cmdtest.ReadFile(t, filepath.Join(dir, "sim.csv")), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines", len(lines))
	}

	ckt, err := netlist.Parse(cmdtest.RingDeck)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	x, err := solver.DCOperatingPointCtx(context.Background(), sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0"}
	for _, v := range x {
		want = append(want, strconv.FormatFloat(v, 'g', 9, 64))
	}
	if got := lines[1]; got != strings.Join(want, ",") {
		t.Fatalf("t = 0 row %q, want the DC point %q", got, strings.Join(want, ","))
	}
}
