package figs

import (
	"context"
	"errors"
	"testing"
)

// TestSpiceFiguresHonourCancellation: with the shared artifacts warm (the
// ring's PSS and PPV and the latch calibration), a cancelled Ctx stops
// every figure that runs a SPICE-level transient — Fig17, Fig19, Fig20 and
// Efficiency — with context.Canceled, instead of completing it.
func TestSpiceFiguresHonourCancellation(t *testing.T) {
	c := New("")
	if _, _, err := c.calibration(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = ctx
	for _, fig := range []struct {
		name string
		run  func() error
	}{
		{"Fig17", func() error { _, err := c.Fig17(); return err }},
		{"Fig19", func() error { _, err := c.Fig19(); return err }},
		{"Fig20", func() error { _, err := c.Fig20(); return err }},
		{"Efficiency", func() error { _, err := c.Efficiency(); return err }},
	} {
		if err := fig.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: error %v, want context.Canceled", fig.name, err)
		}
	}
}
