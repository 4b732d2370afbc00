package solver

import (
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// This file holds everything the two linear-algebra backends do
// differently, behind one type: how Jacobian values on a circuit's sparse
// pattern land in the backend's layout, how a matrix is factored and
// counted, and in which order a θ monodromy factor is propagated. The DC
// Newton (newton.go) and the transient lanes are written once over it.

// Matrix is one n×n matrix together with a factorization of its own. Its
// values take the backend's layout — dense row-major n², or one value per
// entry of a sparsity pattern. Matrices made together share one value
// array (NewMatrices); a sibling has values of its own.
type Matrix interface {
	// Set sets the values to J, given as values on the pattern; each value
	// is copied unchanged.
	Set(jv []float64)
	// Combine sets the values to c + w·J, with c and J given as values on
	// the pattern.
	Combine(c, jv []float64, w float64)
	// Factor factors the values, counting the factorization on m.
	Factor(m *diag.Metrics) error
	// Solve solves A·x = b into dst and returns dst.
	Solve(dst, b linalg.Vec) linalg.Vec
	// SolveMat solves A·X = B into dst, which must not alias b.
	SolveMat(dst, b *linalg.Mat)
	// Propagate sets the augmented sens, [[S, s], [0, 1]], to
	// [[A⁻¹·R·S, A⁻¹·(R·s + b)], [0, 1]], where A is this matrix's
	// factorization, R the values of r (a sibling, whose values it may
	// overwrite) and tmp n×(n+1) scratch: s is one more column of the
	// solve, and S's columns keep the bits they take alone.
	Propagate(r Matrix, sens, tmp *linalg.Mat, b linalg.Vec)
	// Sibling returns a matrix of the same backend and layout with values
	// of its own, counted as pinned; a dense one has a spare column for b.
	Sibling() Matrix
}

// NewMatrices returns count n×n matrices of backend be that share one
// value array — their users assemble and factor one at a time — each with
// a factorization of its own. Sparse values live on pat; a dense matrix
// reads pat to place values given on it (Set, Combine).
func NewMatrices(be linalg.Backend, n int, pat *sparse.Pattern, count int, p *Pins) []Matrix {
	size := n * n
	if be == linalg.BackendSparse {
		size = pat.NNZ()
	}
	vals := make([]float64, size)
	p.Add(size)
	ms := make([]Matrix, count)
	if be == linalg.BackendSparse {
		sm := make([]sparseMatrix, count)
		for i := range sm {
			sm[i] = sparseMatrix{a: sparse.CSC{P: pat, Val: vals}, pin: p}
			ms[i] = &sm[i]
		}
	} else {
		dm := make([]denseMatrix, count)
		for i := range dm {
			dm[i] = denseMatrix{a: linalg.Mat{Rows: n, Cols: n, Data: vals}, pat: pat, pin: p}
			ms[i] = &dm[i]
		}
	}
	return ms
}

// denseMatrix is a Matrix on the dense backend: row-major values and a
// partial-pivoting LU.
type denseMatrix struct {
	a   linalg.Mat
	pat *sparse.Pattern // the pattern values are given on (Set, Combine)
	lu  linalg.LU
	pin *Pins
}

// Set scatters J into the zeroed matrix: off the pattern J is zero.
func (d *denseMatrix) Set(jv []float64) {
	a, n, p := d.a.Data, d.a.Cols, d.pat
	clear(a)
	for j := 0; j < p.N; j++ {
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			a[p.Rows[q]*n+j] = jv[q]
		}
	}
}

// Combine scatters c + w·J into the zeroed matrix: off the pattern C and
// J are both zero.
func (d *denseMatrix) Combine(c, jv []float64, w float64) {
	a, n, p := d.a.Data, d.a.Cols, d.pat
	clear(a)
	for j := 0; j < p.N; j++ {
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			a[p.Rows[q]*n+j] = c[q] + w*jv[q]
		}
	}
}

// Factor counts every factorization, and one that kept its buffers a
// reuse; the first pins the n² factors.
func (d *denseMatrix) Factor(m *diag.Metrics) error {
	err := d.lu.FactorizeInto(&d.a)
	m.Inc(diag.LUFactorizations)
	if d.lu.ReusedBuffers() {
		m.Inc(diag.LUFactorizationsReused)
	} else {
		d.pin.Add(len(d.a.Data))
	}
	return err
}

func (d *denseMatrix) Solve(dst, b linalg.Vec) linalg.Vec { return d.lu.SolveInto(dst, b) }

func (d *denseMatrix) SolveMat(dst, b *linalg.Mat) { d.lu.SolveMatInto(dst, b) }

// Propagate solves the propagator A⁻¹·[R b] into tmp and multiplies it
// into sens through r's values, which it overwrites: on dense storage the
// n column solves against R cost what they would against R·S. The product
// adds b's column times sens's last row, [0 1], to each row last, and a
// sum from +0 is never −0, so S's entries keep their bits.
func (d *denseMatrix) Propagate(r Matrix, sens, tmp *linalg.Mat, b linalg.Vec) {
	rv := &r.(*denseMatrix).a
	for i, v := range b {
		rv.Data[i*rv.Cols+rv.Rows] = v
	}
	d.lu.SolveMatInto(tmp, rv)
	tmp.MulInto(rv, sens)
	copy(sens.Data, rv.Data)
}

func (d *denseMatrix) Sibling() Matrix {
	n := d.a.Rows
	d.pin.Add(n * (n + 1))
	return &denseMatrix{a: linalg.Mat{Rows: n, Cols: n + 1, Data: make([]float64, n*(n+1))}, pat: d.pat, pin: d.pin}
}

// sparseMatrix is a Matrix on the sparse backend: values on the pattern
// and a KLU-style factorization on the pattern's one symbolic analysis.
type sparseMatrix struct {
	a   sparse.CSC
	lu  sparse.LU
	pin *Pins
}

func (s *sparseMatrix) Set(jv []float64) { copy(s.a.Val, jv) }

func (s *sparseMatrix) Combine(c, jv []float64, w float64) {
	a := s.a.Val
	c, jv = c[:len(a)], jv[:len(a)]
	for i := range a {
		a[i] = c[i] + w*jv[i]
	}
}

// Factor counts every factorization, and one into the factors it kept a
// reuse and a sparse refactor; the first is a sparse factorization, which
// counts its fill-in and pins the factors it sized (nnz + fill-in values).
func (s *sparseMatrix) Factor(m *diag.Metrics) error {
	err := s.lu.FactorizeInto(&s.a)
	m.Inc(diag.LUFactorizations)
	if s.lu.ReusedSymbolic() {
		m.Inc(diag.LUFactorizationsReused)
		m.Inc(diag.SparseRefactors)
	} else {
		m.Inc(diag.SparseFactorizations)
		m.Add(diag.SparseFillIns, int64(s.lu.FillIn()))
		s.pin.Add(len(s.a.Val) + s.lu.FillIn())
	}
	return err
}

func (s *sparseMatrix) Solve(dst, b linalg.Vec) linalg.Vec { return s.lu.SolveInto(dst, b) }

func (s *sparseMatrix) SolveMat(dst, b *linalg.Mat) { s.lu.SolveMatInto(dst, b) }

// Propagate forms R·[S s] + [0 b] into tmp as a sparse×dense product
// and back-solves its columns into sens: O(n·(nnz + factors)) where the
// dense order's propagator would cost O(n³).
func (s *sparseMatrix) Propagate(r Matrix, sens, tmp *linalg.Mat, b linalg.Vec) {
	top := linalg.Mat{Rows: tmp.Rows, Cols: tmp.Cols, Data: sens.Data[:len(tmp.Data)]}
	r.(*sparseMatrix).a.MulMatInto(tmp, &top)
	for i, v := range b {
		tmp.Data[i*tmp.Cols+tmp.Rows] += v
	}
	s.lu.SolveMatInto(&top, tmp)
}

func (s *sparseMatrix) Sibling() Matrix {
	s.pin.Add(len(s.a.Val))
	return &sparseMatrix{a: sparse.CSC{P: s.a.P, Val: make([]float64, len(s.a.Val))}, pin: s.pin}
}

// Pins counts the bytes a scratch pins (see diag.ScratchBytesPinned) where
// its buffers are allocated, and reports to metrics what it has not
// reported yet.
type Pins struct{ pinned, reported int64 }

// Add counts n more float64 values as pinned.
func (p *Pins) Add(n int) { p.pinned += 8 * int64(n) }

// Mat returns a zeroed rows×cols matrix, counted as pinned.
func (p *Pins) Mat(rows, cols int) *linalg.Mat {
	p.Add(rows * cols)
	return linalg.NewMat(rows, cols)
}

// Report adds the bytes pinned since the last report to m.
func (p *Pins) Report(m *diag.Metrics) {
	if m == nil || p.pinned == p.reported {
		return
	}
	m.Add(diag.ScratchBytesPinned, p.pinned-p.reported)
	p.reported = p.pinned
}
