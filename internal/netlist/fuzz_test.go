package netlist_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cmdtest"
	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/solver"
)

// FuzzParseAssembleDC drives the path phlogon-sim runs on an untrusted
// deck: parse, assemble, DC operating point. A deck may be refused at any
// stage, but the DC solve may fail only as a non-convergence or a singular
// Jacobian, and nothing may panic. Decks are capped at 2 KB and 64 nodes so
// every input solves in milliseconds.
//
//	go test -run '^$' -fuzz '^FuzzParseAssembleDC$' -fuzztime 10s ./internal/netlist
func FuzzParseAssembleDC(f *testing.F) {
	f.Add(cmdtest.RingDeck)
	f.Add(dividerDeck)
	f.Add("C1 x en 1u\n.rail en 3\nR1 x 0 1k\n") // a rail on a node already free
	// Capacitors to a sine and a pulse rail (their exact dV/dt), a sine
	// source, and a rail named after ground (refused).
	f.Add(".rail ref sin(1.5 1.5 1k 0.1)\nC1 x ref 1u\nR1 x 0 1k\n")
	f.Add(".rail en pulse(0 3 0 10u 10u 2m 5m)\nC1 x en 1u\nR1 x 0 1k\n")
	f.Add("I1 0 x sin(100u 9.6k 0.25 10u)\nR1 x 0 1k\nC1 x 0 1n\n")
	f.Add(".rail gnd 3\nR1 gnd x 1k\nR2 x 0 1k\n")
	f.Fuzz(func(t *testing.T, deck string) {
		if len(deck) > 2048 {
			return
		}
		ckt, err := netlist.Parse(deck)
		if err != nil || ckt.NumNodes() > 64 {
			return
		}
		sys, err := ckt.Assemble()
		if err != nil {
			return
		}
		_, err = solver.DCOperatingPointCtx(context.Background(), sys, nil, 0)
		if err != nil && !errors.Is(err, solver.ErrNoConvergence) && !errors.Is(err, linalg.ErrSingular) {
			t.Fatalf("DC operating point: %v", err)
		}
	})
}
