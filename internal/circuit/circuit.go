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
	"sync"

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

// Rail describes a fixed node: a prescribed potential V(t) and its time
// derivative (needed when capacitors attach to time-varying rails).
//
// Rail contract: V and DVDt are pure functions of t — no state, no reads of
// anything that changes — and a rail's waveform is fixed once the circuit is
// assembled. Evaluation relies on this: each lane of a plan evaluates a
// rail's V(t) (and dV/dt) once per distinct t and serves every later read at
// that t from its time memo, so a Newton step that reads a rail from many
// devices over several iterations runs its waveform once per time point.
// Source waveforms are memoized the same way and carry the same contract.
type Rail struct {
	Name string
	V    func(t float64) float64
	DVDt func(t float64) float64 // optional; nil means numerically differentiated
	// TimeScale is the characteristic time over which V(t) varies (e.g. the
	// waveform period). When DVDt is nil, the numeric differentiation step is
	// taken relative to this scale (h = TimeScale·railDiffRel) instead of the
	// legacy absolute step, which is wrong for rails much faster or much
	// slower than nanoseconds. Zero keeps the legacy absolute step.
	TimeScale float64
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

// Node returns the NodeID for name, creating a free node on first use.
func (c *Circuit) Node(name string) NodeID {
	if name == "0" || name == "gnd" || name == "GND" {
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
// NodeID. Registering must happen before the name is used as a free node.
// v must be a pure function of t and must not change after Assemble (see
// Rail): workspaces evaluate it once per distinct t and reuse the value.
func (c *Circuit) AddRail(name string, v func(t float64) float64) NodeID {
	if _, ok := c.nodeIndex[name]; ok {
		panic(fmt.Sprintf("circuit: node %q already exists as a free node", name))
	}
	if i, ok := c.railIndex[name]; ok {
		c.rails[i].V = v
		return NodeID(-2 - i)
	}
	i := len(c.rails)
	c.rails = append(c.rails, Rail{Name: name, V: v})
	c.railIndex[name] = i
	return NodeID(-2 - i)
}

// AddDCRail registers a fixed node at a constant potential.
func (c *Circuit) AddDCRail(name string, v float64) NodeID {
	id := c.AddRail(name, func(float64) float64 { return v })
	c.rails[-2-int(id)].DVDt = func(float64) float64 { return 0 }
	return id
}

// AddRailDeriv registers a fixed node with a prescribed potential and its
// analytic time derivative, avoiding numeric differentiation entirely.
func (c *Circuit) AddRailDeriv(name string, v, dvdt func(t float64) float64) NodeID {
	id := c.AddRail(name, v)
	c.rails[-2-int(id)].DVDt = dvdt
	return id
}

// SetRailTimeScale declares the characteristic timescale of a time-varying
// rail (typically its period), making the numeric dV/dt step relative to it.
// Panics when id is not a registered rail.
func (c *Circuit) SetRailTimeScale(id NodeID, tau float64) {
	if id.IsFree() || id == Ground {
		panic("circuit: SetRailTimeScale requires a rail NodeID")
	}
	if tau <= 0 {
		panic("circuit: rail timescale must be positive")
	}
	c.rails[-2-int(id)].TimeScale = tau
}

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
	return c.rails[-2-int(n)].V(t)
}

// RailRange returns the lowest and the highest potential among ground and
// every rail at time t.
func (c *Circuit) RailRange(t float64) (lo, hi float64) {
	for _, r := range c.rails {
		v := r.V(t)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// railDiffRel is the central-difference step as a fraction of a rail's
// declared timescale: truncation error ~ (2π·railDiffRel)²/6 ≈ 7e-6 relative
// for a sinusoid, while keeping the step far above float64 granularity.
const railDiffRel = 1e-3

// railDiffAbs is the legacy absolute step used when no timescale is known.
const railDiffAbs = 1e-9

// RailDVDt evaluates dV/dt of a non-free node at time t. Rails with an
// analytic DVDt use it directly; otherwise a central difference is taken
// with a step relative to the rail's TimeScale when declared (falling back
// to the legacy absolute step, which is only appropriate for rails varying
// on roughly nanosecond scales).
func (c *Circuit) RailDVDt(n NodeID, t float64) float64 {
	if n == Ground {
		return 0
	}
	r := c.rails[-2-int(n)]
	if r.DVDt != nil {
		return r.DVDt(t)
	}
	h := railDiffAbs
	if r.TimeScale > 0 {
		h = r.TimeScale * railDiffRel
	}
	return (r.V(t+h) - r.V(t-h)) / (2 * h)
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
// list), so any number of analyses may share one System concurrently. All
// per-evaluation scratch lives in Workspace values obtained from
// NewWorkspace; the Eval*/XDot/RHSJacobian methods on System itself are
// allocation-per-call conveniences that are likewise safe for concurrent
// use.
type System struct {
	Ckt *Circuit
	N   int
	C   *linalg.Mat
	CLU *linalg.LU

	railCaps []railCap
	// cNZ holds C's nonzero entries; built once at Assemble.
	cNZ *sparse.CSC
	// self is the one-lane list the System's plans evaluate; dense is the
	// one-lane plan on the row-major n×n layout, built at Assemble.
	self  [1]*System
	dense *plan

	// Sparse-backend artifacts, each computed once on first use (sync.Once
	// keeps the System immutable-in-effect and race-free): the structural
	// Jacobian pattern (union of the positions the kernels resolve, C, and
	// the diagonal), which the Auto backend reads its density from; then,
	// for a system that runs sparse, C's values on that pattern and the
	// one-lane plan on it.
	patternOnce   sync.Once
	sparsePattern *sparse.Pattern
	sparseOnce    sync.Once
	sparseC       *sparse.CSC
	sparse        *plan
}

// Assemble builds the System: stamps capacitances (adding parasitics),
// factorizes C, validates that every node ended up dynamic, and builds the
// dense evaluation plan. An invalid device (a negative capacitance, a summer
// whose inputs and weights differ in length) fails with an error naming it.
func (c *Circuit) Assemble() (*System, error) {
	n := len(c.nodeNames)
	st := &CapStamper{ckt: c, C: linalg.NewMat(n, n)}
	for _, d := range c.devices {
		if d.StampC(st); st.err != nil {
			return nil, fmt.Errorf("circuit: device %q: %w", d.Label(), st.err)
		}
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
	}
	s.self[0] = s
	if s.dense, err = newPlan(s.self[:], nil); err != nil {
		return nil, fmt.Errorf("circuit: %w", err)
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

// EvalScaled is EvalFJ with gmin/source continuation scaling, for the DC
// operating-point solver; j may be nil when only the residual is needed.
func (s *System) EvalScaled(x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat, gminScale, srcScale float64) {
	s.NewWorkspace().EvalScaled(x, t, f, j, gminScale, srcScale)
}

// XDot computes ẋ = -C⁻¹·f(x, t), the ODE right-hand side. It allocates per
// call and is safe for concurrent use; hot loops should use
// Workspace.XDotInto.
func (s *System) XDot(x linalg.Vec, t float64) linalg.Vec {
	f := s.EvalF(x, t, nil)
	f.Scale(-1)
	return s.CLU.Solve(f)
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

// MaxCap returns the largest diagonal capacitance — a natural scale for
// time-step heuristics.
func (s *System) MaxCap() float64 {
	m := 0.0
	for i := 0; i < s.N; i++ {
		if c := math.Abs(s.C.At(i, i)); c > m {
			m = c
		}
	}
	return m
}
