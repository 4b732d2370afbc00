// Package circuit provides the circuit-equation substrate for the PHLOGON
// design tools. Circuits are described as a set of nodes and devices and are
// assembled into the ODE form
//
//	C·dx/dt = -f(x, t)
//
// where x are the free node voltages, C is the (constant, symmetric positive
// definite) capacitance matrix, and f collects all resistive and source
// currents flowing out of each node (Kirchhoff's current law). This is the
// paper's DAE (eq. 1) specialized to circuits in which every free node
// carries capacitance — true by construction here, because a configurable
// parasitic capacitance is added to any node that would otherwise be purely
// algebraic. Index-0 form keeps the PSS, monodromy, and PPV machinery exact.
//
// Supply rails and level-based logic inputs (EN, CLK) are "fixed" nodes with
// prescribed, possibly time-varying, potentials; they contribute no unknowns.
package circuit

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// NodeID identifies a circuit node. IDs ≥ 0 index free (unknown-voltage)
// nodes; IDs < 0 index fixed nodes (rails). The ground rail is predefined.
type NodeID int

// Ground is the reference rail at 0 V, present in every circuit.
const Ground NodeID = -1

// IsFree reports whether the node is a free unknown.
func (n NodeID) IsFree() bool { return n >= 0 }

// Rail describes a fixed node: its potential is a Waveform, whose exact
// dV/dt drives the capacitors attached to it.
//
// Rail contract: a waveform's V and DVDt are pure functions of t — no
// state, no reads of anything that changes — and a rail's waveform is fixed
// once the circuit is assembled. Evaluation relies on this: each lane of a
// plan evaluates a rail's V(t) (and dV/dt) once per distinct t and serves
// every later read at that t from its time memo, so a Newton step that
// reads a rail from many devices over several iterations runs its waveform
// once per time point. Source waveforms are memoized the same way and carry
// the same contract.
type Rail struct {
	Name string
	Wave Waveform
}

// A Source is a device driven by a waveform, such as a current source.
// Assemble reads the waveform to decide Driven.
type Source interface {
	Waveform() Waveform
}

// Device is a circuit element. StampC is called once at assembly time to
// contribute constant capacitances. NewKernel is called once per plan for
// each device type present, on one device of that type: it returns the
// kernel that evaluates every device of the type (see Peers and Kernel), or
// nil when the type carries no resistive current.
type Device interface {
	Label() string
	StampC(c *CapStamper)
	NewKernel(p Peers, lay *Layout) (Kernel, error)
}

// Circuit is a netlist of free nodes, rails, and devices.
type Circuit struct {
	nodeNames []string
	nodeIndex map[string]int
	rails     []Rail
	railIndex map[string]int
	devices   []Device

	// ParasiticCap is added from every free node to ground so that the
	// capacitance matrix is nonsingular (default 1 pF; see package doc).
	ParasiticCap float64
	// Gmin is a small conductance added from every free node to ground for
	// Newton robustness (default 1e-12 S).
	Gmin float64
}

// New returns an empty circuit with default parasitics.
func New() *Circuit {
	return &Circuit{
		nodeIndex:    map[string]int{},
		railIndex:    map[string]int{},
		ParasiticCap: 1e-12,
		Gmin:         1e-12,
	}
}

// IsGroundName reports whether name denotes the ground rail: "0", "gnd"
// or "GND".
func IsGroundName(name string) bool { return name == "0" || name == "gnd" || name == "GND" }

// Node returns the NodeID for name, creating a free node on first use.
func (c *Circuit) Node(name string) NodeID {
	if IsGroundName(name) {
		return Ground
	}
	if i, ok := c.railIndex[name]; ok {
		return NodeID(-2 - i)
	}
	if i, ok := c.nodeIndex[name]; ok {
		return NodeID(i)
	}
	i := len(c.nodeNames)
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIndex[name] = i
	return NodeID(i)
}

// AddRail registers a fixed node with a prescribed potential and returns its
// NodeID. Registering must happen before the name is used as a free node,
// and a ground name cannot be registered. Registering a name again replaces
// its waveform. w must not change after Assemble (see Rail): workspaces
// evaluate it once per distinct t and reuse the value.
func (c *Circuit) AddRail(name string, w Waveform) NodeID {
	if _, ok := c.nodeIndex[name]; ok {
		panic(fmt.Sprintf("circuit: node %q already exists as a free node", name))
	}
	if IsGroundName(name) {
		panic(fmt.Sprintf("circuit: rail %q would name ground", name))
	}
	if i, ok := c.railIndex[name]; ok {
		c.rails[i].Wave = w
		return NodeID(-2 - i)
	}
	i := len(c.rails)
	c.rails = append(c.rails, Rail{Name: name, Wave: w})
	c.railIndex[name] = i
	return NodeID(-2 - i)
}

// AddDCRail registers a fixed node at a constant potential.
func (c *Circuit) AddDCRail(name string, v float64) NodeID { return c.AddRail(name, DC(v)) }

// Add appends devices to the circuit.
func (c *Circuit) Add(devs ...Device) {
	c.devices = append(c.devices, devs...)
}

// NumNodes returns the number of free nodes (the ODE dimension).
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// NodeName returns the name of free node i.
func (c *Circuit) NodeName(i int) string { return c.nodeNames[i] }

// NodeIndex returns the index of the named free node, or -1.
func (c *Circuit) NodeIndex(name string) int {
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	return -1
}

// Devices returns the device list (shared slice; treat as read-only).
func (c *Circuit) Devices() []Device { return c.devices }

// RailVoltage evaluates the potential of a non-free node at time t.
func (c *Circuit) RailVoltage(n NodeID, t float64) float64 {
	if n == Ground {
		return 0
	}
	return c.rails[-2-int(n)].Wave.V(t)
}

// RailRange returns the lowest and the highest potential among ground and
// every rail at time t.
func (c *Circuit) RailRange(t float64) (lo, hi float64) {
	for _, r := range c.rails {
		v := r.Wave.V(t)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// RailDVDt evaluates dV/dt of a non-free node at time t.
func (c *Circuit) RailDVDt(n NodeID, t float64) float64 {
	if n == Ground {
		return 0
	}
	return c.rails[-2-int(n)].Wave.DVDt(t)
}

// CapStamper accumulates the constant capacitance matrix.
type CapStamper struct {
	ckt *Circuit
	C   *linalg.Mat
	// railCaps[i] lists capacitances from free node i to time-varying rails;
	// they contribute source currents C·dVrail/dt.
	railCaps []railCap
	err      error // the first invalid capacitance stamped
}

type railCap struct {
	node int
	rail NodeID
	cap  float64
}

// AddCap stamps a two-terminal capacitance between nodes a and b.
// A negative or NaN capacitance is not stamped; Assemble reports it.
func (s *CapStamper) AddCap(a, b NodeID, cap float64) {
	if !(cap >= 0) {
		if s.err == nil {
			s.err = fmt.Errorf("invalid capacitance %g", cap)
		}
		return
	}
	if a.IsFree() {
		s.C.Addf(int(a), int(a), cap)
	}
	if b.IsFree() {
		s.C.Addf(int(b), int(b), cap)
	}
	if a.IsFree() && b.IsFree() {
		s.C.Addf(int(a), int(b), -cap)
		s.C.Addf(int(b), int(a), -cap)
	}
	// A capacitor to a moving rail injects C·dVrail/dt into the free node.
	if a.IsFree() && !b.IsFree() && b != Ground {
		s.railCaps = append(s.railCaps, railCap{int(a), b, cap})
	}
	if b.IsFree() && !a.IsFree() && a != Ground {
		s.railCaps = append(s.railCaps, railCap{int(b), a, cap})
	}
}

// System is the assembled ODE-form circuit: C·ẋ = -f(x, t), with the
// capacitance factorization cached for repeated solves.
//
// A System is immutable after Assemble: it holds only the read-only
// structure (circuit, capacitance matrix and its factorization, rail-cap
// list, Jacobian pattern and evaluation plan), so any number of analyses
// may share one System concurrently. All per-evaluation scratch lives in
// Workspace values obtained from NewWorkspace; the EvalF/EvalFJ methods on
// System itself are allocation-per-call conveniences that are likewise
// safe for concurrent use.
type System struct {
	Ckt *Circuit
	N   int
	C   *linalg.Mat
	CLU *linalg.LU

	railCaps []railCap
	// cNZ holds C's nonzero entries; built once at Assemble.
	cNZ *sparse.CSC
	// self is the one-lane list plan evaluates. plan is the System's one
	// evaluation plan, its Jacobian slots on pattern: the structural
	// Jacobian pattern (the positions the kernels resolve, C, and the
	// diagonal). sparseC holds C's values on pattern. All are built at
	// Assemble.
	self    [1]*System
	plan    *plan
	pattern *sparse.Pattern
	sparseC *sparse.CSC
	driven  bool // see Driven
}

// Assemble builds the System: stamps capacitances (adding parasitics),
// factorizes C, validates that every node ended up dynamic, and builds the
// evaluation plan and the Jacobian pattern it stamps on. An invalid device
// (a negative capacitance, a summer whose inputs and weights differ in
// length) fails with an error naming it.
func (c *Circuit) Assemble() (*System, error) {
	n := len(c.nodeNames)
	st := &CapStamper{ckt: c, C: linalg.NewMat(n, n)}
	driven := false
	for _, d := range c.devices {
		if d.StampC(st); st.err != nil {
			return nil, fmt.Errorf("circuit: device %q: %w", d.Label(), st.err)
		}
		if s, ok := d.(Source); ok {
			driven = driven || !isDC(s.Waveform())
		}
	}
	for _, r := range c.rails {
		driven = driven || !isDC(r.Wave)
	}
	for i := 0; i < n; i++ {
		st.C.Addf(i, i, c.ParasiticCap)
	}
	lu, err := linalg.Factorize(st.C)
	if err != nil {
		return nil, fmt.Errorf("circuit: capacitance matrix singular (is ParasiticCap zero?): %w", err)
	}
	s := &System{
		Ckt:      c,
		N:        n,
		C:        st.C,
		CLU:      lu,
		railCaps: st.railCaps,
		cNZ:      sparse.FromDense(st.C),
		driven:   driven,
	}
	s.self[0] = s
	if s.plan, err = newPlan(s.self[:]); err != nil {
		return nil, fmt.Errorf("circuit: %w", err)
	}
	s.pattern = buildPattern(n, s.cNZ.P, s.plan.lay.slabs)
	if err := s.plan.remap(s.pattern); err != nil {
		return nil, fmt.Errorf("circuit: %w", err)
	}
	s.sparseC = sparse.NewCSC(s.pattern) // zero where C has no entry
	for j := 0; j < n; j++ {
		for k := s.pattern.ColPtr[j]; k < s.pattern.ColPtr[j+1]; k++ {
			s.sparseC.Val[k] = st.C.At(s.pattern.Rows[k], j)
		}
	}
	return s, nil
}

// CNonzeros returns C's nonzero entries as a CSC matrix (shared and
// read-only), built once at Assemble. Its MulVecInto adds each row's terms
// from zero in ascending column order, exactly like a dense row product,
// and skips only terms that are exact zeros — so for finite vectors it
// returns the dense product's bits while touching C's nonzeros alone.
func (s *System) CNonzeros() *sparse.CSC { return s.cNZ }

// EvalF computes f(x, t) (KCL out-currents including Gmin and rail-cap
// source terms) into dst. dst may be nil, in which case a new vector is
// returned. The returned slice aliases dst when provided. It evaluates
// through a fresh Workspace; hot paths should keep their own.
func (s *System) EvalF(x linalg.Vec, t float64, dst linalg.Vec) linalg.Vec {
	return s.NewWorkspace().EvalF(x, t, dst)
}

// EvalFJ computes f and its Jacobian J = df/dx at (x, t).
func (s *System) EvalFJ(x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat) {
	s.NewWorkspace().EvalFJ(x, t, f, j)
}

// Driven reports whether some rail or source waveform is not DC. A driven
// circuit has no autonomous limit cycle.
func (s *System) Driven() bool { return s.driven }

func isDC(w Waveform) bool {
	_, ok := w.(DC)
	return ok
}

// InjectionGain returns the vector mapping a current injected *into* free
// node k to the ODE right-hand side: ẋ += gain·I. (gain = C⁻¹·e_k.)
func (s *System) InjectionGain(k int) linalg.Vec {
	e := linalg.NewVec(s.N)
	e[k] = 1
	return s.CLU.Solve(e)
}

// Describe returns a one-line summary, useful in logs and errors.
func (s *System) Describe() string {
	return fmt.Sprintf("circuit with %d free nodes, %d rails, %d devices",
		s.N, len(s.Ckt.rails), len(s.Ckt.devices))
}
