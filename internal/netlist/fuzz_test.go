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
