// Package serve exposes the memoizing analysis engine as a hardened HTTP
// service: a stdlib net/http JSON API over the ctx-first facade, carrying
// the paper's design flow (PSS → PPV → GAE locking analysis, plus
// SPICE-level transients) to many clients at once.
//
// The service layers three defenses around the engine:
//
//   - Admission control: at most Options.MaxInFlight analysis requests run
//     concurrently; excess requests are refused immediately with 503 +
//     Retry-After instead of queueing unboundedly (the engine's own bounded
//     compute pool then caps actual solver parallelism below that).
//   - Per-request deadlines: every analysis runs under a context that
//     combines the client's disconnect with Options.RequestTimeout.
//   - Graceful drain: BeginDrain flips the server into lame-duck mode — new
//     analysis requests get 503 (and /healthz goes 503 so load balancers
//     stop routing) while requests already in flight run to completion;
//     DrainWait blocks until they have.
//
// Failures map onto the library's sentinel error taxonomy
// (phlogon.ErrNoConvergence etc.) via a stable JSON error envelope whose
// codes round-trip through DecodeError, so errors.Is works across the wire.
package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/gae"
	"repro/internal/ringosc"
)

// RingSpec selects and parameterizes a ring-oscillator vehicle. Zero fields
// take the paper's calibrated defaults (3 stages, 3 V, 4.7 nF, ALD1106/07
// devices); Variant "2n1p" starts from the asymmetric-inverter variant of
// Figs. 6–7. The resolved config is the engine cache key, so two specs that
// resolve identically share one artifact — across requests, clients, and
// (with a disk store) server restarts.
type RingSpec struct {
	Variant  string  `json:"variant,omitempty"` // "", "1n1p", or "2n1p"
	Stages   int     `json:"stages,omitempty"`  // odd, ≥ 3
	Vdd      float64 `json:"vdd,omitempty"`     // volts, > 0
	CLoad    float64 `json:"cload,omitempty"`   // farads, > 0
	NMOSMult float64 `json:"nmos_mult,omitempty"`
}

// Config resolves the spec to a full ring configuration, validating the
// overridden fields.
func (s RingSpec) Config() (ringosc.Config, error) {
	var cfg ringosc.Config
	switch s.Variant {
	case "", "1n1p":
		cfg = ringosc.DefaultConfig()
	case "2n1p":
		cfg = ringosc.Config2N1P()
	default:
		return cfg, badRequestf("ring.variant %q: want \"1n1p\" or \"2n1p\"", s.Variant)
	}
	if s.Stages != 0 {
		if s.Stages < 3 || s.Stages%2 == 0 {
			return cfg, badRequestf("ring.stages %d: want odd and ≥ 3", s.Stages)
		}
		cfg.Stages = s.Stages
	}
	if s.Vdd != 0 {
		if s.Vdd < 0 {
			return cfg, badRequestf("ring.vdd %g: want > 0", s.Vdd)
		}
		cfg.Vdd = s.Vdd
	}
	if s.CLoad != 0 {
		if s.CLoad < 0 {
			return cfg, badRequestf("ring.cload %g: want > 0", s.CLoad)
		}
		cfg.CLoad = s.CLoad
	}
	if s.NMOSMult != 0 {
		if s.NMOSMult < 0 {
			return cfg, badRequestf("ring.nmos_mult %g: want > 0", s.NMOSMult)
		}
		cfg.NMOSMult = s.NMOSMult
	}
	return cfg, nil
}

// PSSRequest asks for a ring's periodic steady state (shooting).
type PSSRequest struct {
	Ring RingSpec `json:"ring"`
}

// PSSResponse summarizes a converged periodic steady state.
type PSSResponse struct {
	F0         float64 `json:"f0_hz"`
	T0         float64 `json:"t0_s"`
	Residual   float64 `json:"residual_v"`
	Iterations int     `json:"iterations"`
	Nodes      int     `json:"nodes"`
	// Multipliers are the Floquet multipliers as [re, im] pairs, sorted by
	// decreasing magnitude.
	Multipliers [][2]float64 `json:"multipliers"`
	Stable      bool         `json:"stable"`
	// Cold reports whether this request triggered the underlying
	// computation (engine miss) rather than riding the cache.
	Cold bool `json:"cold"`
}

// PPVRequest asks for a ring's extracted PPV phase macromodel.
type PPVRequest struct {
	Ring RingSpec `json:"ring"`
	// Harmonics bounds the per-node harmonic table in the response
	// (default 8, capped at 32).
	Harmonics int `json:"harmonics,omitempty"`
}

// PPVHarmonic is one |V_m|∠V_m entry of a node's PPV Fourier series.
type PPVHarmonic struct {
	Harmonic  int     `json:"harmonic"`
	Magnitude float64 `json:"magnitude"`
	// Phase is in cycles (fraction of 2π).
	Phase float64 `json:"phase_cycles"`
}

// PPVResponse summarizes an extracted phase macromodel.
type PPVResponse struct {
	F0        float64         `json:"f0_hz"`
	T0        float64         `json:"t0_s"`
	NormError float64         `json:"norm_error"`
	Nodes     [][]PPVHarmonic `json:"nodes"`
	Cold      bool            `json:"cold"`
}

// InjectionSpec is a fixed sinusoidal current injection for GAE analyses.
type InjectionSpec struct {
	Node     int     `json:"node"`
	Amp      float64 `json:"amp_a"`
	Harmonic int     `json:"harmonic"`
	Phase    float64 `json:"phase_cycles,omitempty"`
}

// SweepRequest asks for a SYNC-amplitude locking sweep (the Fig. 7
// machinery) on one ring. The PSS→PPV chain is resolved through the engine
// cache; only the (cheap) sweep itself is per-request work once the
// macromodel is warm.
type SweepRequest struct {
	Ring RingSpec `json:"ring"`
	// F1 is the reference frequency; 0 means the ring's own f0.
	F1 float64 `json:"f1_hz,omitempty"`
	// SyncNode/SyncHarm describe the swept SYNC injection.
	SyncNode int `json:"sync_node"`
	SyncHarm int `json:"sync_harm"`
	// Amps are the swept SYNC amplitudes (amperes).
	Amps []float64 `json:"amps_a"`
	// Injections are held fixed while the SYNC amplitude sweeps.
	Injections []InjectionSpec `json:"injections,omitempty"`
}

// maxSweepAmps bounds one request's sweep grid.
const maxSweepAmps = 4096

// SweepPoint is one locking-band sample.
type SweepPoint struct {
	Amp   float64 `json:"amp_a"`
	F1Lo  float64 `json:"f1_lo_hz"`
	F1Hi  float64 `json:"f1_hi_hz"`
	Locks bool    `json:"locks"`
}

// SweepResponse is a completed locking sweep.
type SweepResponse struct {
	F0     float64      `json:"f0_hz"`
	Points []SweepPoint `json:"points"`
	Cold   bool         `json:"cold"`
}

func (r *SweepRequest) injections() []gae.Injection {
	out := make([]gae.Injection, len(r.Injections))
	for i, inj := range r.Injections {
		out[i] = gae.Injection{Node: inj.Node, Amp: inj.Amp, Harmonic: inj.Harmonic, Phase: inj.Phase}
	}
	return out
}

// TransientRequest asks for a SPICE-level transient of a ring from its
// kick-start state. Durations are in periods of the ring's analytic
// frequency estimate (ringosc's EstimatedF0, within 0.87–1.17 of the true
// f0), so one spec is meaningful across ring variants. The estimate used
// to read about 2.2× the true f0, so a request now spans about 2.2× the
// simulated time it did.
//
// A request may take at most maxTransientSteps steps, Cycles ×
// StepsPerCycle, and record at most maxTransientPoints points,
// ⌈steps/Record⌉ + 1; a larger one is refused with a 400 before anything
// is integrated. An adaptive run's steps are counted at its initial step.
type TransientRequest struct {
	Ring RingSpec `json:"ring"`
	// Cycles is the integration span (default 3, capped at maxCycles).
	Cycles float64 `json:"cycles,omitempty"`
	// StepsPerCycle sets the fixed step (default 256, capped at 8192).
	StepsPerCycle int `json:"steps_per_cycle,omitempty"`
	// Method is "" / "theta" (trapezoidal default) or "gear2".
	Method string `json:"method,omitempty"`
	// Adaptive enables LTE step control (unsupported for gear2 — the
	// request is refused with code "unsupported").
	Adaptive bool `json:"adaptive,omitempty"`
	// Record keeps every Record-th accepted point (default 1).
	Record int `json:"record,omitempty"`
	// Stream selects chunked NDJSON delivery: one {"t","x"} object per
	// recorded point, a closing {"done"} object, flushed as it is written —
	// long transients arrive incrementally instead of as one giant body.
	Stream bool `json:"stream,omitempty"`
}

const (
	maxCycles        = 10000
	maxStepsPerCycle = 8192
	// A run's Newton work grows with its steps and its response with its
	// recorded points, so both are capped: a million steps of a small ring
	// integrate in seconds, well inside the request deadline, and 65,536
	// points keep a buffered body to a few MB.
	maxTransientSteps  = 1 << 20
	maxTransientPoints = 1 << 16
)

// TransientResponse is a buffered (non-streaming) transient result.
type TransientResponse struct {
	T        []float64   `json:"t_s"`
	X        [][]float64 `json:"x_v"`
	Steps    int         `json:"steps"`
	Rejected int         `json:"rejected"`
}

// StreamRow is one NDJSON line of a streaming transient: either a sample
// (T/X set), the closing summary (Done true), or a terminal error.
type StreamRow struct {
	T        float64    `json:"t,omitempty"`
	X        []float64  `json:"x,omitempty"`
	Done     bool       `json:"done,omitempty"`
	Steps    int        `json:"steps,omitempty"`
	Rejected int        `json:"rejected,omitempty"`
	Err      *ErrorBody `json:"error,omitempty"`
}

// LogicRunRequest compiles a phase-logic netlist IR document and runs it as
// a phase-macromodel network on the requested ring's extracted PPV. Exactly
// one of Word (a single settled evaluation — combinational outputs plus one
// latch capture) or Streams (a clocked multi-period bit-stream run) must be
// set. The PSS→PPV chain rides the engine cache; only the macromodel
// integration itself is per-request work.
type LogicRunRequest struct {
	Ring RingSpec `json:"ring"`
	// Netlist is the IR document, in the JSON schema `phlogon-fsm compile`
	// emits ({"name", "inputs", "outputs", "ops"}).
	Netlist json.RawMessage `json:"netlist"`
	// Word holds one bit per netlist input, in declaration order.
	Word []bool `json:"word,omitempty"`
	// Streams holds one equal-length bit stream per netlist input; outputs
	// are decoded once per clock period.
	Streams [][]bool `json:"streams,omitempty"`
	// InputOscillators routes inputs through a wobblchip-style input
	// oscillator array (one latch per input) instead of ideal phasor drives.
	// Word mode only.
	InputOscillators bool `json:"input_oscillators,omitempty"`
	// SettleCycles overrides how many reference cycles a Word-mode run
	// settles before decoding (default 60, capped at maxLogicCycles).
	SettleCycles int `json:"settle_cycles,omitempty"`
}

// Bounds on one logic run: the op budget caps compiled network size (each
// latch is two oscillators), the cycle and stream-bit budgets cap
// integration time (each stream bit costs one CLK period, 100 reference
// cycles by default).
const (
	maxLogicOps        = 1024
	maxLogicCycles     = 4096
	maxLogicStreamBits = 64
)

// LogicRunResponse carries the decoded outputs of a compiled logic run.
type LogicRunResponse struct {
	// Outputs names the decoded nets, in netlist declaration order.
	Outputs []string `json:"outputs"`
	// Bits is the decoded output word (Word mode).
	Bits []bool `json:"bits,omitempty"`
	// Streams is the decoded per-period bit stream of each output, indexed
	// [output][period] (Streams mode).
	Streams [][]bool `json:"streams,omitempty"`
	// Latches is the number of phase-macromodel oscillators integrated.
	Latches int     `json:"latches"`
	F1      float64 `json:"f1_hz"`
	Cold    bool    `json:"cold"`
}

// badRequestf builds a 400-coded apiError.
func badRequestf(format string, args ...any) error {
	return &apiError{code: CodeBadRequest, status: 400, msg: fmt.Sprintf(format, args...)}
}
