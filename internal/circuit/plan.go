package circuit

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/linalg/sparse"
)

// A plan evaluates f (and J) for K congruent systems, its lanes: one kernel
// per device type present, holding its devices' terminals and Jacobian
// slots resolved once and the per-lane parameters in contiguous arrays, and
// runs that call the kernels in device declaration order. Its Jacobian
// slots index one lane's values on the system's sparse pattern. A System
// builds its one-lane plan at Assemble — the kernels resolve dense
// row-major slots, the pattern is derived from them, and the slots are
// remapped onto it — and a Batch of K > 1 lanes builds a K-lane plan on
// lane 0's pattern the same way.
//
// Bit-identity contract: per lane, a plan accumulates into every residual
// entry and Jacobian slot in declaration order, then adds the Gmin
// diagonal, then the rail-cap source terms, and each kernel evaluates its
// device's expressions in the reference stamps' order (device's tests pin
// every kernel bit for bit against them). A lane of a Batch therefore
// bit-equals a Workspace evaluation of the same system.
type plan struct {
	lay   Layout
	lanes []*System
	runs  []run
	diag  []int // Gmin diagonal slots
}

// run evaluates positions [lo, hi) of one kernel.
type run struct {
	kn     Kernel
	lo, hi int
}

// Kernel evaluates the devices of one type. Eval runs the kernel's
// positions [lo, hi), in order, on every active lane of e.
type Kernel interface {
	Eval(lo, hi int, e *EvalContext)
}

// Peers lists the devices of one type in a plan: Len positions in
// declaration order, each holding one device per lane.
type Peers struct {
	pos   []int
	lanes []*System
}

// Len returns the number of positions.
func (p Peers) Len() int { return len(p.pos) }

// At returns the device at position i in lane k.
func (p Peers) At(i, k int) Device { return p.lanes[k].Ckt.devices[p.pos[i]] }

// Layout is the geometry kernels resolve their devices against while a plan
// is built: the lane and node counts, Jacobian slots and per-lane memo
// entries. Kernels take their slot tables from Slots, so the plan can remap
// them onto a sparse pattern once every kernel is built.
type Layout struct {
	k, n    int     // lanes, nodes
	memo    int     // per-lane memo entries reserved so far
	slabs   [][]int // every slot table handed out
	chunk   []int   // storage Slots carves tables from
	hint    int     // capacity of a fresh chunk
	slabBuf [8][]int
}

// Lanes returns the number of lanes.
func (l *Layout) Lanes() int { return l.k }

// Slots returns a table of n Jacobian slots for a kernel to fill with Slot.
func (l *Layout) Slots(n int) []int {
	s := l.ints(n)
	l.slabs = append(l.slabs, s)
	return s
}

// ints carves n ints from the current chunk, starting a new one when it is
// full; a carved table never moves.
func (l *Layout) ints(n int) []int {
	if len(l.chunk)+n > cap(l.chunk) {
		l.chunk = make([]int, 0, max(n, l.hint))
	}
	m := len(l.chunk)
	l.chunk = l.chunk[:m+n]
	return l.chunk[m : m+n : m+n]
}

// Slot resolves the Jacobian position (row, col) to its dense row-major
// slot, which the plan remaps onto the pattern, or −1 when either node is
// not free (the stamp is dropped).
func (l *Layout) Slot(row, col NodeID) int {
	if !row.IsFree() || !col.IsFree() {
		return -1
	}
	return int(row)*l.n + int(col)
}

// Memo reserves n per-lane memo entries for values that depend on the
// lane's time alone and returns the index of the first (see EvalContext.Memo).
func (l *Layout) Memo(n int) int {
	m := l.memo
	l.memo += n
	return m
}

// EvalContext carries one plan evaluation to the kernels. Slices are
// lane-major: lane k's state is X[k·N:(k+1)·N], its residual F likewise,
// and its Jacobian values JV[k·NNZ:(k+1)·NNZ] (JV is nil when WantJacobian
// is false). Kernels touch only the lanes listed in Active.
type EvalContext struct {
	X, F, JV     []float64
	N, NNZ       int
	Active       []int
	WantJacobian bool
	// GminScale scales the circuit Gmin (gmin continuation); SourceScale
	// scales every independent source (source stepping).
	GminScale, SourceScale float64

	t     float64
	tl    []float64 // per-lane times; nil means t for every lane
	memo  []float64 // lane k's entries at [k·m, (k+1)·m)
	keys  []uint64  // bits of the time each lane's memo holds
	m     int
	lanes []*System
}

// T returns lane k's time.
func (e *EvalContext) T(k int) float64 {
	if e.tl != nil {
		return e.tl[k]
	}
	return e.t
}

// Memo returns lane k's time memo. Entry 2r holds rail r's V and 2r+1 its
// dV/dt; kernels own the entries Layout.Memo reserved for them. An entry is
// NaN until it is stored at the lane's time, and every entry returns to NaN
// when that time changes.
func (e *EvalContext) Memo(k int) []float64 { return e.memo[k*e.m : (k+1)*e.m] }

// V returns the voltage of node n in lane k: the lane's state for a free
// node, the lane's rail waveform (through the memo) otherwise.
func (e *EvalContext) V(k int, n NodeID) float64 {
	if n.IsFree() {
		return e.X[k*e.N+int(n)]
	}
	if n == Ground {
		return 0
	}
	r := -2 - int(n)
	i := k*e.m + 2*r
	v := e.memo[i]
	if v != v { // not yet evaluated at this time (a NaN rail simply re-runs)
		v = e.lanes[k].Ckt.rails[r].Wave.V(e.T(k))
		e.memo[i] = v
	}
	return v
}

// dvdt is dV/dt of rail n in lane k, memoized like V.
func (e *EvalContext) dvdt(k int, n NodeID) float64 {
	i := k*e.m + 2*(-2-int(n)) + 1
	d := e.memo[i]
	if d != d {
		d = e.lanes[k].Ckt.RailDVDt(n, e.T(k))
		e.memo[i] = d
	}
	return d
}

// newPlan builds the plan for lanes with its Jacobian slots on the dense
// row-major layout; remap moves them onto a pattern. Kernels are built per
// device type, so a plan costs a few allocations per type present, not per
// device.
func newPlan(lanes []*System) (*plan, error) {
	s0 := lanes[0]
	devs := s0.Ckt.devices
	p := &plan{lay: Layout{k: len(lanes), n: s0.N, memo: 2 * len(s0.Ckt.rails)}, lanes: lanes}
	// One chunk usually holds the positions, every slot table and the
	// diagonal: no device type stamps more than six slots.
	p.lay.hint = 7*len(devs) + s0.N
	p.lay.slabs = p.lay.slabBuf[:0]
	type group struct {
		t     reflect.Type
		n     int
		pos   []int
		kn    Kernel
		bound int // positions placed in runs so far
	}
	var buf [8]group
	groups := buf[:0]
	find := func(d Device) int {
		t := reflect.TypeOf(d)
		for g := range groups {
			if groups[g].t == t {
				return g
			}
		}
		groups = append(groups, group{t: t})
		return len(groups) - 1
	}
	for _, d := range devs {
		groups[find(d)].n++
	}
	pos := p.lay.ints(len(devs))
	for g, off := 0, 0; g < len(groups); g++ {
		groups[g].pos = pos[off : off : off+groups[g].n]
		off += groups[g].n
	}
	for i, d := range devs {
		g := &groups[find(d)]
		g.pos = append(g.pos, i)
		for k, s := range lanes[1:] {
			if reflect.TypeOf(s.Ckt.devices[i]) != g.t {
				return nil, fmt.Errorf("device %q: lane %d is %T, lane 0 %T", d.Label(), k+1, s.Ckt.devices[i], d)
			}
		}
	}
	nruns := 0
	for g := range groups {
		kn, err := devs[groups[g].pos[0]].NewKernel(Peers{pos: groups[g].pos, lanes: lanes}, &p.lay)
		if err != nil {
			return nil, err
		}
		groups[g].kn = kn
	}
	// Runs: consecutive evaluating positions of one type share a run, even
	// across devices that evaluate nothing (capacitors).
	last := -1
	for _, d := range devs {
		if g := find(d); groups[g].kn != nil && g != last {
			nruns, last = nruns+1, g
		}
	}
	p.runs, last = make([]run, 0, nruns), -1
	for _, d := range devs {
		g := find(d)
		gr := &groups[g]
		if gr.kn == nil {
			continue
		}
		if g == last {
			p.runs[len(p.runs)-1].hi++
		} else {
			p.runs, last = append(p.runs, run{kn: gr.kn, lo: gr.bound, hi: gr.bound + 1}), g
		}
		gr.bound++
	}
	p.diag = p.lay.Slots(s0.N)
	for i := range p.diag {
		p.diag[i] = p.lay.Slot(NodeID(i), NodeID(i))
	}
	return p, nil
}

// remap moves the plan's dense row-major Jacobian slots onto pat.
func (p *plan) remap(pat *sparse.Pattern) error {
	n := p.lay.n
	for _, sl := range p.lay.slabs {
		for j, v := range sl {
			if v >= 0 {
				if sl[j] = pat.IndexOf(v/n, v%n); sl[j] < 0 {
					return fmt.Errorf("a kernel stamps (%d,%d) outside the sparse pattern", v/n, v%n)
				}
			}
		}
	}
	return nil
}

// eval runs the plan on e's active lanes: the lanes' memos move to their
// times, then the kernels, the Gmin diagonal and the rail-cap source terms
// accumulate into F (and JV), which the caller has zeroed.
func (p *plan) eval(e *EvalContext) {
	for _, k := range e.Active {
		if key := math.Float64bits(e.T(k)); key != e.keys[k] {
			e.keys[k] = key
			nanFill(e.Memo(k))
		}
	}
	for _, r := range p.runs {
		r.kn.Eval(r.lo, r.hi, e)
	}
	n := p.lay.n
	for _, k := range e.Active {
		x, f := e.X[k*n:(k+1)*n], e.F[k*n:(k+1)*n]
		g := p.lanes[k].Ckt.Gmin * e.GminScale
		if e.WantJacobian {
			jv := e.JV[k*e.NNZ : (k+1)*e.NNZ]
			for i, s := range p.diag {
				f[i] += g * x[i]
				jv[s] += g
			}
		} else {
			for i := range f {
				f[i] += g * x[i]
			}
		}
	}
	for _, k := range e.Active {
		for _, rc := range p.lanes[k].railCaps {
			e.F[k*n+rc.node] -= rc.cap * e.dvdt(k, rc.rail)
		}
	}
}

// nanFill sets every entry of m to NaN (an empty memo) and returns m.
func nanFill(m []float64) []float64 {
	for i := range m {
		m[i] = math.NaN()
	}
	return m
}
