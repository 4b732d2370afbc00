// Package ringosc builds the paper's concrete circuit vehicles: the 3-stage
// CMOS ring oscillator with 4.7 nF stage loads (Fig. 3), the level-enabled
// D latch around it (Fig. 9), and the SPICE-level serial adder (Fig. 15).
// Inverters use ALD1106/ALD1107-like devices; the 2N1P variant parallels two
// NMOS pulldowns per stage, which asymmetrizes the waveform and enlarges the
// PPV's second harmonic (Figs. 6–7).
package ringosc

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/linalg"
)

// Config parameterizes the ring oscillator.
type Config struct {
	Stages   int     // odd number of inverter stages (default 3)
	Vdd      float64 // supply (default 3 V)
	CLoad    float64 // per-stage load capacitance (default 4.7 nF)
	NMOSMult float64 // NMOS multiplicity: 1 → 1N1P, 2 → 2N1P (default 1)
	NMOS     device.MOSParams
	PMOS     device.MOSParams
}

// DefaultConfig returns the paper's 1N1P ring: 3 stages, Vdd = 3 V,
// C = 4.7 nF, calibrated to free-run near 9.6 kHz.
func DefaultConfig() Config {
	return Config{
		Stages:   3,
		Vdd:      3.0,
		CLoad:    4.7e-9,
		NMOSMult: 1,
		NMOS:     device.ALD1106(),
		PMOS:     device.ALD1107(),
	}
}

// Config2N1P returns the asymmetric-inverter variant used in Figs. 6–7.
func Config2N1P() Config {
	c := DefaultConfig()
	c.NMOSMult = 2
	return c
}

// Ring is an assembled ring oscillator with named stage nodes.
type Ring struct {
	Cfg   Config
	Ckt   *circuit.Circuit
	Sys   *circuit.System
	Nodes []circuit.NodeID // stage output nodes n1..nK
	Vdd   circuit.NodeID
}

// Build constructs and assembles the ring oscillator circuit.
func Build(cfg Config) (*Ring, error) {
	if cfg.Stages == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Stages%2 == 0 || cfg.Stages < 3 {
		return nil, fmt.Errorf("ringosc: stages must be odd and ≥ 3, got %d", cfg.Stages)
	}
	ckt := circuit.New()
	vdd := ckt.AddDCRail("vdd", cfg.Vdd)
	nodes := make([]circuit.NodeID, cfg.Stages)
	for i := range nodes {
		nodes[i] = ckt.Node(fmt.Sprintf("n%d", i+1))
	}
	for i := range nodes {
		in := nodes[(i+len(nodes)-1)%len(nodes)]
		out := nodes[i]
		ckt.Add(
			&device.MOSFET{Name: fmt.Sprintf("mn%d", i+1), D: out, G: in, S: circuit.Ground,
				Params: cfg.NMOS, Mult: cfg.NMOSMult},
			&device.MOSFET{Name: fmt.Sprintf("mp%d", i+1), D: out, G: in, S: vdd,
				Params: cfg.PMOS, PMOS: true},
			&device.Capacitor{Name: fmt.Sprintf("c%d", i+1), A: out, B: circuit.Ground, C: cfg.CLoad},
		)
	}
	sys, err := ckt.Assemble()
	if err != nil {
		return nil, err
	}
	return &Ring{Cfg: cfg, Ckt: ckt, Sys: sys, Nodes: nodes, Vdd: vdd}, nil
}

// KickStart returns an initial state that breaks the unstable mid-rail
// symmetry so transient simulation falls onto the oscillation limit cycle.
func (r *Ring) KickStart() linalg.Vec {
	x := linalg.NewVec(r.Sys.N)
	for i := range x {
		// Stagger the stages around mid-rail.
		x[i] = r.Cfg.Vdd/2 + 0.8*math.Sin(2*math.Pi*float64(i)/float64(len(x)))
	}
	x[0] = r.Cfg.Vdd * 0.9
	return x
}

// OutputIndex returns the free-node index of stage output n1, the node the
// paper injects SYNC into and observes.
func (r *Ring) OutputIndex() int { return int(r.Nodes[0]) }

// EstimatedF0 returns an analytic estimate of the free-running frequency,
// within 0.87–1.17 of the solved f0 on every ring of 3/5/9 stages ×
// Vdd 1.2/2/3/5 V × 1N1P/2N1P. It sizes simulation windows in cycles (a
// cold solve's settle and phase search among them); the true f0 comes from
// PSS analysis.
func (r *Ring) EstimatedF0() float64 { return estimatedF0(r.Cfg) }

// estimateKappa scales the summed stage delays to the ring's period. It
// is fitted once over the rings EstimatedF0 documents: their solved
// periods span 1.39–1.88 times the summed delays, and 1.6 splits that
// range.
const estimateKappa = 1.6

// estimatedF0 sums each stage's fall and rise delay: the stage output swings
// Vdd/2 discharging its load C through the NMOS pull-down, at I_N, and
// charging it through the PMOS pull-up, at I_P, each the saturation current
// at |Vgs| = Vdd. Every stage falls and rises once per period, so
//
//	T ≈ κ·N·C·(Vdd/2)·(1/I_N + 1/I_P).
func estimatedF0(cfg Config) float64 {
	vovN := cfg.Vdd - cfg.NMOS.VT0
	iN := 0.5 * cfg.NMOS.Beta * cfg.NMOSMult * vovN * vovN
	vovP := cfg.Vdd - cfg.PMOS.VT0
	iP := 0.5 * cfg.PMOS.Beta * vovP * vovP
	period := estimateKappa * float64(cfg.Stages) * cfg.CLoad * (cfg.Vdd / 2) * (1/iN + 1/iP)
	return 1 / period
}

// System returns the assembled ODE system (the engine.Oscillator contract).
func (r *Ring) System() *circuit.System { return r.Sys }

// InitialState returns the kick-start state as a plain slice (the
// engine.Oscillator contract; identical to KickStart).
func (r *Ring) InitialState() []float64 { return []float64(r.KickStart()) }

// OscillatorKey identifies the ring for content-addressed caching: the kind
// tag and the full build configuration.
func (r *Ring) OscillatorKey() (kind string, cfg any) { return "ring", r.Cfg }
