// Package device provides the circuit-element models used by the PHLOGON
// design tools: linear passives, independent sources, a long-channel MOSFET
// (with ALD1106/ALD1107-like parameter sets for breadboard-class parts), a
// behavioural saturating op-amp summer (majority / NOT gates built from
// op-amps with resistive feedback, as in the paper's breadboard FSM), and a
// transmission-gate switch.
package device

import (
	"repro/internal/circuit"
)

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	Name string
	A, B circuit.NodeID
	R    float64 // ohms, must be > 0
}

// Label implements circuit.Device.
func (r *Resistor) Label() string { return r.Name }

// StampC implements circuit.Device (no capacitance).
func (r *Resistor) StampC(*circuit.CapStamper) {}

// NewKernel implements circuit.Device.
func (*Resistor) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	return newLinearKernel(p, lay)
}

// Capacitor is a linear two-terminal capacitance.
type Capacitor struct {
	Name string
	A, B circuit.NodeID
	C    float64 // farads
}

// Label implements circuit.Device.
func (c *Capacitor) Label() string { return c.Name }

// StampC implements circuit.Device.
func (c *Capacitor) StampC(s *circuit.CapStamper) { s.AddCap(c.A, c.B, c.C) }

// NewKernel implements circuit.Device: capacitors carry no resistive
// current, so they need no kernel.
func (*Capacitor) NewKernel(circuit.Peers, *circuit.Layout) (circuit.Kernel, error) {
	return nil, nil
}

// Conductor is a linear conductance (occasionally handier than Resistor).
type Conductor struct {
	Name string
	A, B circuit.NodeID
	G    float64 // siemens
}

// Label implements circuit.Device.
func (c *Conductor) Label() string { return c.Name }

// StampC implements circuit.Device.
func (c *Conductor) StampC(*circuit.CapStamper) {}

// NewKernel implements circuit.Device.
func (*Conductor) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	return newLinearKernel(p, lay)
}

// VCCS is a voltage-controlled current source: a current Gm·(Vcp - Vcn)
// flows from OutP to OutN (out of OutP, into OutN).
type VCCS struct {
	Name       string
	CtrlP      circuit.NodeID
	CtrlN      circuit.NodeID
	OutP, OutN circuit.NodeID
	Gm         float64
}

// Label implements circuit.Device.
func (v *VCCS) Label() string { return v.Name }

// StampC implements circuit.Device.
func (v *VCCS) StampC(*circuit.CapStamper) {}

// NewKernel implements circuit.Device.
func (*VCCS) NewKernel(p circuit.Peers, lay *circuit.Layout) (circuit.Kernel, error) {
	return newLinearKernel(p, lay)
}
