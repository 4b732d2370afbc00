package transient

import (
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// This file holds everything the two linear-algebra backends do
// differently, behind one type: how a lane's values on the batch pattern
// land in the backend's layout, how a matrix is factored and counted, and
// in which order a θ monodromy factor is propagated. The lanes (batch.go)
// are written once over it.

// matrix is one n×n matrix of a lane together with a factorization of its
// own. Its values take the backend's layout — dense row-major n², or one
// value per entry of a sparsity pattern. Matrices made together share one
// value array (newMatrices); a sibling has values of its own.
type matrix interface {
	// combine sets the values to c + w·J, with c and J given as one lane's
	// values on the batch pattern.
	combine(c, jv []float64, w float64)
	// factor factors the values, counting the factorization on m.
	factor(m *diag.Metrics) error
	// solve solves A·x = b into dst and returns dst.
	solve(dst, b linalg.Vec) linalg.Vec
	// solveMat solves A·X = B into dst, which must not alias b.
	solveMat(dst, b *linalg.Mat)
	// propagate sets sens to A⁻¹·R·sens, where A is this matrix's
	// factorization, R the values of r (a sibling, whose values it may
	// overwrite) and tmp n×n scratch.
	propagate(r matrix, sens, tmp *linalg.Mat)
	// sibling returns a matrix of the same backend and layout with values
	// of its own, counted as pinned.
	sibling() matrix
}

// newMatrices returns count n×n matrices of backend be that share one
// value array — their users assemble and factor one at a time — each with
// a factorization of its own. Sparse values live on pat; a dense matrix
// reads pat to place lane values (combine).
func newMatrices(be linalg.Backend, n int, pat *sparse.Pattern, count int, p *pins) []matrix {
	size := n * n
	if be == linalg.BackendSparse {
		size = pat.NNZ()
	}
	vals := make([]float64, size)
	p.add(size)
	ms := make([]matrix, count)
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

// denseMatrix is a matrix on the dense backend: row-major values and a
// partial-pivoting LU.
type denseMatrix struct {
	a   linalg.Mat
	pat *sparse.Pattern // the lanes' Jacobian pattern (combine)
	lu  linalg.LU
	pin *pins
}

// combine scatters c + w·J into the zeroed matrix: off the pattern C and
// J are both zero.
func (d *denseMatrix) combine(c, jv []float64, w float64) {
	a, n, p := d.a.Data, d.a.Cols, d.pat
	clear(a)
	for j := 0; j < n; j++ {
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			a[p.Rows[q]*n+j] = c[q] + w*jv[q]
		}
	}
}

// factor counts every factorization, and one that kept its buffers a
// reuse; the first pins the n² factors.
func (d *denseMatrix) factor(m *diag.Metrics) error {
	err := d.lu.FactorizeInto(&d.a)
	m.Inc(diag.LUFactorizations)
	if d.lu.ReusedBuffers() {
		m.Inc(diag.LUFactorizationsReused)
	} else {
		d.pin.add(len(d.a.Data))
	}
	return err
}

func (d *denseMatrix) solve(dst, b linalg.Vec) linalg.Vec { return d.lu.SolveInto(dst, b) }

func (d *denseMatrix) solveMat(dst, b *linalg.Mat) { d.lu.SolveMatInto(dst, b) }

// propagate solves the propagator A⁻¹·R into tmp and multiplies it into
// sens through r's values, which it overwrites: on dense storage the n
// column solves against R cost what they would against R·sens.
func (d *denseMatrix) propagate(r matrix, sens, tmp *linalg.Mat) {
	rv := &r.(*denseMatrix).a
	d.lu.SolveMatInto(tmp, rv)
	tmp.MulInto(rv, sens)
	sens.CopyFrom(rv)
}

func (d *denseMatrix) sibling() matrix {
	n := d.a.Rows
	d.pin.add(n * n)
	return &denseMatrix{a: linalg.Mat{Rows: n, Cols: n, Data: make([]float64, n*n)}, pat: d.pat, pin: d.pin}
}

// sparseMatrix is a matrix on the sparse backend: values on the pattern and
// a KLU-style factorization on the pattern's one symbolic analysis.
type sparseMatrix struct {
	a   sparse.CSC
	lu  sparse.LU
	pin *pins
}

func (s *sparseMatrix) combine(c, jv []float64, w float64) {
	a := s.a.Val
	c, jv = c[:len(a)], jv[:len(a)]
	for i := range a {
		a[i] = c[i] + w*jv[i]
	}
}

// factor counts every factorization, and one into the factors it kept a
// reuse and a sparse refactor; the first is a sparse factorization, which
// counts its fill-in and pins the factors it sized (nnz + fill-in values).
func (s *sparseMatrix) factor(m *diag.Metrics) error {
	err := s.lu.FactorizeInto(&s.a)
	m.Inc(diag.LUFactorizations)
	if s.lu.ReusedSymbolic() {
		m.Inc(diag.LUFactorizationsReused)
		m.Inc(diag.SparseRefactors)
	} else {
		m.Inc(diag.SparseFactorizations)
		m.Add(diag.SparseFillIns, int64(s.lu.FillIn()))
		s.pin.add(len(s.a.Val) + s.lu.FillIn())
	}
	return err
}

func (s *sparseMatrix) solve(dst, b linalg.Vec) linalg.Vec { return s.lu.SolveInto(dst, b) }

func (s *sparseMatrix) solveMat(dst, b *linalg.Mat) { s.lu.SolveMatInto(dst, b) }

// propagate forms R·sens into tmp as a sparse×dense product and back-solves
// its columns into sens: O(n·(nnz + factors)) where the dense order's
// propagator would cost O(n³).
func (s *sparseMatrix) propagate(r matrix, sens, tmp *linalg.Mat) {
	r.(*sparseMatrix).a.MulMatInto(tmp, sens)
	s.lu.SolveMatInto(sens, tmp)
}

func (s *sparseMatrix) sibling() matrix {
	s.pin.add(len(s.a.Val))
	return &sparseMatrix{a: sparse.CSC{P: s.a.P, Val: make([]float64, len(s.a.Val))}, pin: s.pin}
}

// pins counts the bytes a scratch pins (see diag.ScratchBytesPinned) where
// its buffers are allocated, and reports to metrics what it has not
// reported yet.
type pins struct{ pinned, reported int64 }

// add counts n more float64 values as pinned.
func (p *pins) add(n int) { p.pinned += 8 * int64(n) }

// mat returns a zeroed n×n matrix, counted as pinned.
func (p *pins) mat(n int) *linalg.Mat {
	p.add(n * n)
	return linalg.NewMat(n, n)
}

// report adds the bytes pinned since the last report to m.
func (p *pins) report(m *diag.Metrics) {
	if m == nil || p.pinned == p.reported {
		return
	}
	m.Add(diag.ScratchBytesPinned, p.pinned-p.reported)
	p.reported = p.pinned
}
