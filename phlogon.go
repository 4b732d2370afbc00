// Package phlogon is the public facade of the PHLOGON design-tool library —
// a from-scratch Go reproduction of Wang & Roychowdhury, "Design Tools for
// Oscillator-based Computing Systems" (DAC 2015).
//
// The library covers every stage of phase-logic system design:
//
//   - SPICE-level circuit modelling and transient simulation of the
//     oscillator latches (packages circuit, device, solver, transient);
//   - periodic steady-state analysis by shooting and harmonic balance
//     (package pss);
//   - PPV phase-macromodel extraction, time-domain and PPV-HB (package ppv);
//   - Generalized Adlerization: lock prediction, locking range, locking
//     phase error, bit-flip transients (package gae);
//   - full-system phase-macromodel simulation of phase-logic FSMs
//     (packages phasemacro, phlogic);
//   - the paper's concrete vehicles (package ringosc) and figure
//     regeneration (package figs, cmd/phlogon-figs).
//
// A typical designer flow goes through an Engine, which memoizes the
// expensive PSS and PPV artifacts so every downstream analysis of the same
// oscillator reuses one extraction:
//
//	eng := phlogon.NewEngine(phlogon.EngineOptions{})
//	ring, sol, p, _ := eng.RingPPV(ctx, phlogon.DefaultRingConfig())
//	m := phlogon.NewGAE(p, 9.6e3,
//	    phlogon.Injection{Node: 0, Amp: 100e-6, Harmonic: 2}) // SYNC at 2·f1
//	locks := m.StableEquilibria()                        // the stored bit's phases
//	_ = ring
//	_ = sol
//
// Every analysis entry point takes a context.Context first (cancellation,
// deadlines, and diagnostics attribution flow through it).
package phlogon

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/gae"
	"repro/internal/netlist"
	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/transient"
)

// Re-exported core types. These aliases are the supported public API; the
// internal packages remain free to grow details behind them.
type (
	// Circuit is a netlist of nodes and devices.
	Circuit = circuit.Circuit
	// System is an assembled circuit in ODE form.
	System = circuit.System
	// NodeID identifies a circuit node.
	NodeID = circuit.NodeID
	// PSS is a converged periodic steady state.
	PSS = pss.Solution
	// PPV is an extracted phase macromodel.
	PPV = ppv.PPV
	// GAE is a Generalized Adler Equation model.
	GAE = gae.Model
	// Injection is a sinusoidal current injection for GAE analyses.
	Injection = gae.Injection
	// Equilibrium is a lock solution of the GAE.
	Equilibrium = gae.Equilibrium
	// Ring is the paper's ring-oscillator vehicle.
	Ring = ringosc.Ring
	// RingConfig parameterizes the ring oscillator.
	RingConfig = ringosc.Config
	// DLatch is the Fig. 9 level-enabled D latch circuit.
	DLatch = ringosc.Latch
	// DLatchConfig parameterizes the D latch.
	DLatchConfig = ringosc.LatchConfig
	// PhaseSystem is a coupled multi-latch phase-macromodel system.
	PhaseSystem = phasemacro.System
	// SerialAdder is the Fig. 15 FSM on phase macromodels.
	SerialAdder = phlogic.SerialAdder
	// Netlist is the phase-logic compiler's IR: a combinational/FSM block
	// of MAJ/NOT gates and phase-encoded D latches over named nets.
	Netlist = phlogic.Netlist
	// NetlistOp is one IR operation.
	NetlistOp = phlogic.Op
	// Program is a validated, compiled Netlist ready for Boolean or
	// phase-domain evaluation.
	Program = phlogic.Program
	// MacroMachine is a Program lowered onto the phase-macromodel
	// substrate, with wobblchip-style I/O (reference latch, optional input
	// oscillator array, pairwise-detector readout).
	MacroMachine = phlogic.MacroMachine
	// MacroConfig tunes CompileMacro.
	MacroConfig = phlogic.MacroConfig
	// LogicCircuit is a Program lowered to a transistor-level circuit of
	// ring-oscillator latches, op-amp summers, and coupling networks.
	LogicCircuit = phlogic.LogicCircuit
	// LogicCircuitConfig sizes LowerLogicCircuit.
	LogicCircuitConfig = phlogic.CircuitConfig
	// InputArray is the wobblchip-style transistor-level input stage: one
	// oscillator per word bit behind switchable coupling links.
	InputArray = phlogic.InputArray
	// InputArrayConfig sizes BuildInputArray.
	InputArrayConfig = phlogic.InputArrayConfig
	// TransientOptions tunes SPICE-level transient analysis.
	TransientOptions = transient.Options
	// TransientResult is a recorded SPICE-level trajectory.
	TransientResult = transient.Result
)

// Ground is the 0 V reference rail.
const Ground = circuit.Ground

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return circuit.New() }

// ParseNetlist parses a SPICE-flavoured deck (see package netlist).
func ParseNetlist(src string) (*Circuit, error) { return netlist.Parse(src) }

// DefaultRingConfig is the paper's 1N1P ring (3 stages, 4.7 nF, ≈9.6 kHz).
func DefaultRingConfig() RingConfig { return ringosc.DefaultConfig() }

// Ring2N1PConfig is the asymmetric-inverter variant of Figs. 6–7.
func Ring2N1PConfig() RingConfig { return ringosc.Config2N1P() }

// BuildRing assembles a ring oscillator.
func BuildRing(cfg RingConfig) (*Ring, error) { return ringosc.Build(cfg) }

// BuildDLatch assembles the Fig. 9 D latch.
func BuildDLatch(cfg DLatchConfig) (*DLatch, error) { return ringosc.BuildLatch(cfg) }

// Oscillator is the substrate abstraction of the analysis pipeline:
// anything that assembles into an autonomous ODE system with a limit cycle.
// *Ring implements it, and every PSS/PPV entry point — FindPSSCtx,
// ExtractPPVCtx, and the Engine's memoized PSS/PPV — accepts any
// implementation. A driven circuit such as the D latch (its SYNC and D
// sources set the time axis) is not one: autonomous shooting refuses an
// orbit without a Floquet multiplier near 1 with pss.ErrNotAutonomous. See
// engine.Oscillator for the method contract.
type Oscillator = engine.Oscillator

// FindPSSCtx computes an oscillator's periodic steady state by shooting.
// The context carries cancellation and diagnostics (see package diag via
// the cmd-line tools' -diag flag). Any Oscillator may be passed: the
// paper's ring or a custom substrate. The solve is the one a default Engine
// runs on a miss, so both return identical artifacts.
func FindPSSCtx(ctx context.Context, osc Oscillator) (*PSS, error) {
	return engine.ColdPSS(ctx, osc, pss.Options{StepsPerPeriod: 1024})
}

// ExtractPPVCtx extracts the time-domain PPV macromodel from an
// oscillator's PSS, as an Engine miss does.
func ExtractPPVCtx(ctx context.Context, osc Oscillator, sol *PSS) (*PPV, error) {
	return engine.ColdPPV(ctx, osc, sol)
}

// RingPPVCtx is the one-call pipeline: build → PSS → PPV. Unlike an
// Engine's RingPPV it recomputes from scratch on every call.
func RingPPVCtx(ctx context.Context, cfg RingConfig) (*Ring, *PSS, *PPV, error) {
	r, err := ringosc.Build(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sol, err := FindPSSCtx(ctx, r)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := ExtractPPVCtx(ctx, r, sol)
	if err != nil {
		return nil, nil, nil, err
	}
	return r, sol, p, nil
}

// NewGAE builds a Generalized Adler Equation around a PPV.
func NewGAE(p *PPV, f1 float64, inj ...Injection) *GAE {
	return gae.NewModel(p, f1, inj...)
}

// RunTransientCtx integrates a circuit's ODE (SPICE-level transient
// analysis) with cancellation.
func RunTransientCtx(ctx context.Context, sys *System, x0 []float64, t0, t1 float64, opt TransientOptions) (*TransientResult, error) {
	return transient.RunCtx(ctx, sys, x0, t0, t1, opt)
}

// NewSerialAdder builds the Fig. 15 serial adder on phase macromodels.
func NewSerialAdder(p *PPV, f1 float64, aBits, bBits []bool, cfg phlogic.SerialAdderConfig) (*SerialAdder, error) {
	return phlogic.NewSerialAdder(p, f1, aBits, bBits, cfg)
}

// The phase-logic compiler: netlist IR in, runnable phase-logic systems
// out. See internal/phlogic and the DESIGN.md compiler section.

// ParseLogicNetlist decodes and validates a JSON IR document.
func ParseLogicNetlist(data []byte) (*Netlist, error) { return phlogic.ParseNetlistJSON(data) }

// RippleCarryAdderNetlist generates the IR of an N-bit ripple-carry adder
// (inputs a0../b0.., outputs s0../cout, majority-logic full-adder slices).
func RippleCarryAdderNetlist(bits int) *Netlist { return phlogic.RippleCarryAdder(bits) }

// ShiftRegisterNetlist generates the IR of an N-stage serial shift register.
func ShiftRegisterNetlist(stages int) *Netlist { return phlogic.ShiftRegister(stages) }

// SynthesizeTruthTable compiles an arbitrary combinational truth table into
// a two-level MAJ/NOT netlist (see phlogic.SynthesizeTruthTable).
func SynthesizeTruthTable(name string, inputs, outputs []string, table [][]bool) (*Netlist, error) {
	return phlogic.SynthesizeTruthTable(name, inputs, outputs, table)
}

// CompileMacro lowers a netlist onto the phase-macromodel substrate: one
// oscillator latch per sequential element plus the wobblchip-style I/O
// structure, with the MAJ/NOT gates evaluated as phasor algebra in the
// coupled system's drive network.
func CompileMacro(n *Netlist, p *PPV, f1 float64, cfg MacroConfig) (*MacroMachine, error) {
	return phlogic.CompileMacro(n, p, f1, cfg)
}

// LowerLogicCircuit lowers a netlist to a transistor-level circuit:
// ring-oscillator latch pairs with transmission-gate clocking for the
// flip-flops, op-amp summers for the gates, phase-encoded rails for the
// inputs (streams[i] drives input i, one bit per clock period).
func LowerLogicCircuit(n *Netlist, streams [][]bool, cfg LogicCircuitConfig) (*LogicCircuit, error) {
	return phlogic.LowerCircuit(n, streams, cfg)
}

// BuildInputArray assembles the wobblchip-style transistor-level input
// stage encoding the given word.
func BuildInputArray(word []bool, cfg InputArrayConfig) (*InputArray, error) {
	return phlogic.BuildInputArray(word, cfg)
}

// Devices re-exported for programmatic circuit building.
type (
	// Resistor is a linear resistance.
	Resistor = device.Resistor
	// Capacitor is a linear capacitance.
	Capacitor = device.Capacitor
	// MOSFET is the long-channel square-law transistor model.
	MOSFET = device.MOSFET
	// SineCurrent is a sinusoidal current source.
	SineCurrent = device.SineCurrent
	// Summer is the behavioural op-amp weighted summer (majority gates).
	Summer = device.Summer
	// TransGate is the transmission-gate switch.
	TransGate = device.TransGate
)

// ALD1106 returns the calibrated NMOS parameter set.
func ALD1106() device.MOSParams { return device.ALD1106() }

// ALD1107 returns the calibrated PMOS parameter set.
func ALD1107() device.MOSParams { return device.ALD1107() }
