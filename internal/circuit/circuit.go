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
// assembled. A Workspace relies on this: it evaluates each rail's V(t) (and
// dV/dt) once per distinct t and serves every later read at that t from
// memory, so a Newton step that reads a rail from many devices over several
// iterations runs its waveform once per time point.
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
// contribute constant capacitances; Eval is called at every (x, t) to
// contribute KCL currents and, when ctx.WantJacobian, their derivatives.
type Device interface {
	Label() string
	StampC(c *CapStamper)
	Eval(ctx *EvalContext)
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

// railDiffRel is the central-difference step as a fraction of a rail's
// declared timescale: truncation error ~ (2π·railDiffRel)²/6 ≈ 7e-6 relative
// for a sinusoid, while keeping the step far above float64 granularity.
const railDiffRel = 1e-3

// railDiffAbs is the legacy absolute step used when no timescale is known.
const railDiffAbs = 1e-9

// railDVDt evaluates dV/dt of a non-free node at time t. Rails with an
// analytic DVDt use it directly; otherwise a central difference is taken
// with a step relative to the rail's TimeScale when declared (falling back
// to the legacy absolute step, which is only appropriate for rails varying
// on roughly nanosecond scales).
func (c *Circuit) railDVDt(n NodeID, t float64) float64 {
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
}

type railCap struct {
	node int
	rail NodeID
	cap  float64
}

// AddCap stamps a two-terminal capacitance between nodes a and b.
func (s *CapStamper) AddCap(a, b NodeID, cap float64) {
	if cap < 0 {
		panic("circuit: negative capacitance")
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

// EvalContext carries the operating point to Device.Eval and accumulates
// KCL currents F (out of each node) and their Jacobian J = dF/dx. The
// Jacobian lands in exactly one of three sinks: the dense J matrix (the
// historical path, bit-identical), the sparse SJ values (the
// linalg.BackendSparse stamp path), or a pattern recorder (position-only,
// used once per topology to precompute the sparsity pattern).
type EvalContext struct {
	ckt *Circuit
	// railV/railD memoize rail potentials and dV/dt at T, indexed by rail;
	// NaN marks a slot not yet evaluated at T. Only a Workspace's reusable
	// context carries them (it clears them whenever T changes); System's
	// per-call contexts leave them nil and evaluate every read.
	railV, railD []float64
	T            float64
	X            linalg.Vec
	F            linalg.Vec
	J            *linalg.Mat
	SJ           *sparse.CSC      // sparse Jacobian sink; nil on the dense path
	rec          *patternRecorder // position recorder; nil outside pattern capture
	WantJacobian bool
	// GminScale scales the circuit Gmin (used by gmin continuation).
	GminScale float64
	// SourceScale scales all independent sources (source stepping); devices
	// honoring it multiply their source values by it.
	SourceScale float64
}

// V returns the voltage of any node at the context's (x, t).
func (e *EvalContext) V(n NodeID) float64 {
	if n.IsFree() {
		return e.X[int(n)]
	}
	if n == Ground {
		return 0
	}
	i := -2 - int(n)
	if i >= len(e.railV) {
		return e.ckt.rails[i].V(e.T)
	}
	v := e.railV[i]
	if v != v { // not yet evaluated at T (a NaN rail simply re-runs)
		v = e.ckt.rails[i].V(e.T)
		e.railV[i] = v
	}
	return v
}

// railDVDt is dV/dt of rail n at the context's t, memoized like V.
func (e *EvalContext) railDVDt(n NodeID) float64 {
	i := -2 - int(n)
	if i < 0 || i >= len(e.railD) {
		return e.ckt.railDVDt(n, e.T)
	}
	d := e.railD[i]
	if d != d {
		d = e.ckt.railDVDt(n, e.T)
		e.railD[i] = d
	}
	return d
}

// AddCurrent adds a current i flowing out of node n into the device.
func (e *EvalContext) AddCurrent(n NodeID, i float64) {
	if n.IsFree() {
		e.F[int(n)] += i
	}
}

// AddJac adds dI(out of n)/dV(m) to the Jacobian.
func (e *EvalContext) AddJac(n, m NodeID, d float64) {
	if !e.WantJacobian || !n.IsFree() || !m.IsFree() {
		return
	}
	if e.rec != nil {
		e.rec.add(int(n), int(m))
		return
	}
	if e.SJ != nil {
		e.SJ.Add(int(n), int(m), d)
		return
	}
	e.J.Addf(int(n), int(m), d)
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

	// Sparse-backend artifacts, computed once on first use (sync.Once keeps
	// the System immutable-in-effect and race-free): the structural Jacobian
	// pattern (union of device stamps, C, and the diagonal), C's values on
	// that pattern, and a sparse factorization of C. Small circuits that
	// never leave the dense backend never pay for any of this.
	sparseOnce    sync.Once
	sparsePattern *sparse.Pattern
	sparseC       *sparse.CSC
}

// Assemble builds the System: stamps capacitances (adding parasitics),
// factorizes C, and validates that every node ended up dynamic.
func (c *Circuit) Assemble() (*System, error) {
	n := len(c.nodeNames)
	st := &CapStamper{ckt: c, C: linalg.NewMat(n, n)}
	for _, d := range c.devices {
		d.StampC(st)
	}
	for i := 0; i < n; i++ {
		st.C.Addf(i, i, c.ParasiticCap)
	}
	lu, err := linalg.Factorize(st.C)
	if err != nil {
		return nil, fmt.Errorf("circuit: capacitance matrix singular (is ParasiticCap zero?): %w", err)
	}
	return &System{
		Ckt:      c,
		N:        n,
		C:        st.C,
		CLU:      lu,
		railCaps: st.railCaps,
		cNZ:      sparse.FromDense(st.C),
	}, nil
}

// CNonzeros returns C's nonzero entries as a CSC matrix (shared and
// read-only), built once at Assemble. Its MulVecInto adds each row's terms
// from zero in ascending column order, exactly like a dense row product,
// and skips only terms that are exact zeros — so for finite vectors it
// returns the dense product's bits while touching C's nonzeros alone.
func (s *System) CNonzeros() *sparse.CSC { return s.cNZ }

// evalInto runs every device plus the implicit terms against a prepared
// context — the single evaluation core shared by System and Workspace.
func (s *System) evalInto(ctx *EvalContext) {
	for _, d := range s.Ckt.devices {
		d.Eval(ctx)
	}
	g := s.Ckt.Gmin * ctx.GminScale
	for i := 0; i < s.N; i++ {
		ctx.F[i] += g * ctx.X[i]
		if ctx.WantJacobian {
			ctx.AddJac(NodeID(i), NodeID(i), g)
		}
	}
	for _, rc := range s.railCaps {
		ctx.F[rc.node] -= rc.cap * ctx.railDVDt(rc.rail)
	}
}

// EvalF computes f(x, t) (KCL out-currents including Gmin and rail-cap
// source terms) into dst. dst may be nil, in which case a new vector is
// returned. The returned slice aliases dst when provided. Hot paths should
// prefer Workspace.EvalF, which reuses the evaluation context.
func (s *System) EvalF(x linalg.Vec, t float64, dst linalg.Vec) linalg.Vec {
	if dst == nil {
		dst = linalg.NewVec(s.N)
	}
	dst.Zero()
	ctx := &EvalContext{ckt: s.Ckt, T: t, X: x, F: dst, GminScale: 1, SourceScale: 1}
	s.evalInto(ctx)
	return dst
}

// EvalFJ computes f and its Jacobian J = df/dx at (x, t).
func (s *System) EvalFJ(x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat) {
	f.Zero()
	j.Zero()
	ctx := &EvalContext{ckt: s.Ckt, T: t, X: x, F: f, J: j, WantJacobian: true, GminScale: 1, SourceScale: 1}
	s.evalInto(ctx)
}

// EvalScaled is EvalFJ with gmin/source continuation scaling, for the DC
// operating-point solver.
func (s *System) EvalScaled(x linalg.Vec, t float64, f linalg.Vec, j *linalg.Mat, gminScale, srcScale float64) {
	f.Zero()
	wantJ := j != nil
	if wantJ {
		j.Zero()
	}
	ctx := &EvalContext{ckt: s.Ckt, T: t, X: x, F: f, J: j, WantJacobian: wantJ, GminScale: gminScale, SourceScale: srcScale}
	s.evalInto(ctx)
}

// XDot computes ẋ = -C⁻¹·f(x, t), the ODE right-hand side. It allocates per
// call and is safe for concurrent use; hot loops should use Workspace.XDot.
func (s *System) XDot(x linalg.Vec, t float64) linalg.Vec {
	f := s.EvalF(x, t, nil)
	f.Scale(-1)
	return s.CLU.Solve(f)
}

// RHSJacobian computes A(t) = d(ẋ)/dx = -C⁻¹·J(x, t), used by monodromy and
// adjoint (PPV) integration. It allocates per call and is safe for
// concurrent use; hot loops should use Workspace.RHSJacobian.
func (s *System) RHSJacobian(x linalg.Vec, t float64) *linalg.Mat {
	return s.NewWorkspace().RHSJacobian(x, t)
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
