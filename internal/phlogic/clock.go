package phlogic

import (
	"math"

	"repro/internal/circuit"
)

// Clock generates the two-phase enable scheme of a master–slave flip-flop
// built from level-enabled D latches (Fig. 9 / Fig. 19). Per the paper's
// scope caption — "Q1 always follows input D at falling edges of CLK, while
// Q2 follows Q1 at rising edges" — the master is transparent while CLK is
// high (capturing D at the falling edge) and the slave while CLK is low
// (capturing Q1 at the rising edge). The enables follow circuit.ClockLevel,
// the same smooth clock the transistor-level circuits' clock rails carry.
type Clock struct {
	Period float64 // s
	Delay  float64 // s before the first rising edge
}

// Level returns the Boolean clock level at t.
func (c Clock) Level(t float64) bool {
	tt := math.Mod(t-c.Delay, c.Period)
	if tt < 0 {
		tt += c.Period
	}
	return tt < c.Period/2
}

// ENMaster is the master latch enable (transparent while CLK is high).
func (c Clock) ENMaster(t float64) float64 { return circuit.ClockLevel(t-c.Delay, c.Period) }

// ENSlave is the slave latch enable (transparent while CLK is low).
func (c Clock) ENSlave(t float64) float64 { return 1 - circuit.ClockLevel(t-c.Delay, c.Period) }

// BitStream turns an LSB-first bit sequence into a time-dependent level,
// one bit per clock period. Bit k is presented on
// [Delay + (k − ¼)·P, Delay + (k + ¾)·P): transitions land mid-way through
// the clock-low phase, when the master latch is opaque.
type BitStream struct {
	Bits  []bool
	Clock Clock
}

// At returns the stream's level at time t (clamping outside the sequence).
func (s BitStream) At(t float64) bool {
	p := s.Clock.Period
	k := int(math.Floor((t - s.Clock.Delay + p/4) / p))
	if k < 0 {
		k = 0
	}
	if k >= len(s.Bits) {
		k = len(s.Bits) - 1
	}
	return s.Bits[k]
}
