package phlogon_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	phlogon "repro"
	"repro/internal/phlogic"
	"repro/internal/transient"
)

// TestFacadePipeline exercises the documented public flow end to end.
func TestFacadePipeline(t *testing.T) {
	ring, sol, p, err := phlogon.RingPPVCtx(context.Background(), phlogon.DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ring.Sys.N != 3 {
		t.Errorf("ring has %d nodes", ring.Sys.N)
	}
	if sol.F0 < 9.3e3 || sol.F0 > 9.9e3 {
		t.Errorf("f0 = %g", sol.F0)
	}
	m := phlogon.NewGAE(p, sol.F0, phlogon.Injection{
		Name: "SYNC", Node: 0, Amp: 100e-6, Harmonic: 2,
	})
	if !m.WillLock() {
		t.Fatal("SHIL not predicted at 100 µA")
	}
	d0, d1, err := m.SHILPhases()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Abs(d0-d1)-0.5) > 0.02 && math.Abs(math.Abs(d0-d1)-0.5) < 0.48 {
		t.Errorf("SHIL phases %g, %g not antipodal", d0, d1)
	}
}

// TestFacadeMatchesEngine: the uncached FindPSSCtx/ExtractPPVCtx run the
// same cold extraction as a default Engine's miss, so both return equal
// artifacts, down to every grid state and PPV sample.
func TestFacadeMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("cold PSS solves skipped in -short")
	}
	ctx := context.Background()
	ring, err := phlogon.BuildRing(phlogon.DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	ring2n1p, err := phlogon.BuildRing(phlogon.Ring2N1PConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, osc := range map[string]phlogon.Oscillator{"ring": ring, "ring2n1p": ring2n1p} {
		sol, err := phlogon.FindPSSCtx(ctx, osc)
		if err != nil {
			t.Fatal(err)
		}
		p, err := phlogon.ExtractPPVCtx(ctx, osc, sol)
		if err != nil {
			t.Fatal(err)
		}
		esol, ep, err := phlogon.NewEngine(phlogon.EngineOptions{}).PPV(ctx, osc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sol, esol) {
			t.Errorf("%s: FindPSSCtx differs from Engine.PSS", name)
		}
		if !reflect.DeepEqual(p, ep) {
			t.Errorf("%s: ExtractPPVCtx differs from Engine.PPV", name)
		}
	}
}

func TestFacadeNetlistRoundTrip(t *testing.T) {
	ckt, err := phlogon.ParseNetlist(".rail vdd 3.0\nR1 vdd out 1k\nR2 out 0 1k\n")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res, err := phlogon.RunTransientCtx(context.Background(), sys, []float64{0}, 0, 1e-6, transient.Options{
		Method: transient.BE, Step: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Parasitic-cap node settles toward the 1.5 V divider voltage.
	if v := res.Final()[0]; v < 1.2 || v > 1.6 {
		t.Errorf("divider settled at %g", v)
	}
}

// A deck with a negative capacitance is untrusted input: Assemble fails
// with an error naming the device instead of panicking.
func TestFacadeNetlistNegativeCapacitance(t *testing.T) {
	ckt, err := phlogon.ParseNetlist("R1 a 0 1k\nC1 a 0 -1n\n")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Assemble()
	if err == nil || !strings.Contains(err.Error(), `"C1"`) {
		t.Fatalf("Assemble = %v, %v; want an error naming C1", sys, err)
	}
}

func TestFacadeSerialAdder(t *testing.T) {
	_, _, p, err := phlogon.RingPPVCtx(context.Background(), phlogon.DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := []bool{true, true}
	b := []bool{false, true}
	sa, err := phlogon.NewSerialAdder(p, p.F0, a, b, phlogic.SerialAdderConfig{SyncAmp: 100e-6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sa.Run(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := sa.ReadSums(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := phlogic.GoldenSerialAdder(a, b)
	for i := range want {
		if sums[i] != want[i] {
			t.Errorf("sum bit %d = %v, want %v", i, sums[i], want[i])
		}
	}
}

func TestFacadeDeviceParams(t *testing.T) {
	n, p := phlogon.ALD1106(), phlogon.ALD1107()
	if n.VT0 <= 0 || p.VT0 <= 0 {
		t.Error("threshold voltages must be positive magnitudes")
	}
	if p.Beta >= n.Beta {
		t.Error("PMOS transconductance should be below NMOS (hole mobility)")
	}
}
