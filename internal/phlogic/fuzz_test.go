package phlogic_test

import (
	"bytes"
	"testing"

	"repro/internal/phlogic"
)

// FuzzParseNetlistJSON drives the path phlogon-fsm and /v1/logic/run take
// on an untrusted IR document: the strict JSON parse and its validation. No
// input may panic, and an accepted document must round-trip JSON() → parse
// → JSON() byte for byte, compile, and evaluate on all-false inputs and
// latch state. Documents are capped at 4 KB.
//
//	go test -run '^$' -fuzz '^FuzzParseNetlistJSON$' -fuzztime 10s ./internal/phlogic
func FuzzParseNetlistJSON(f *testing.F) {
	for _, n := range []*phlogic.Netlist{phlogic.RippleCarryAdder(2), phlogic.ShiftRegister(2)} {
		doc, err := n.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if len(doc) > 4096 {
			return
		}
		n, err := phlogic.ParseNetlistJSON(doc)
		if err != nil {
			return
		}
		out, err := n.JSON()
		if err != nil {
			t.Fatalf("encoding an accepted document: %v", err)
		}
		back, err := phlogic.ParseNetlistJSON(out)
		if err != nil {
			t.Fatalf("JSON() of an accepted document does not parse: %v\n%s", err, out)
		}
		if again, err := back.JSON(); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("JSON() does not round-trip (%v):\n%s\nthen\n%s", err, out, again)
		}
		prog, err := n.Compile()
		if err != nil {
			t.Fatalf("an accepted document does not compile: %v", err)
		}
		if _, _, err := prog.EvalBool(make([]bool, len(prog.Inputs)), make([]bool, len(prog.Latches))); err != nil {
			t.Fatalf("EvalBool on all-false inputs: %v", err)
		}
	})
}
