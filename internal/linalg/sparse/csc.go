// Package sparse provides the compressed-sparse-column (CSC) matrix type and
// the KLU-style LU factorization behind linalg.BackendSparse: the sparsity
// pattern of a circuit Jacobian is fixed once per topology, values are
// overwritten in place every Newton iteration, the symbolic factorization
// (fill-reducing ordering + fill pattern) is computed once per pattern and
// shared by every factorization on it, and the numeric refactor/solve hot
// path allocates nothing —
// mirroring the pinned-buffer FactorizeInto/SolveInto discipline of the
// dense internal/linalg.LU.
//
// Oscillator netlists couple each device to at most a handful of nodes, so
// nnz grows linearly with the circuit while dense storage grows
// quadratically and dense factorization cubically; this package is what lets
// SPICE-level transient and shooting scale to hundreds-to-thousands of
// coupled oscillators (see DESIGN.md, "The sparse backend").
package sparse

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/linalg"
)

// Pattern is an immutable square CSC sparsity pattern: ColPtr[j]..ColPtr[j+1]
// indexes the sorted row indices of column j inside Rows. Patterns are built
// once per topology (PatternFromEntries) and shared read-only between any
// number of CSC value arrays, factorizations and goroutines. A pattern also
// carries its LU's symbolic analysis, computed on the first factorization on
// it (see LU), so its fields must not change once it has been factored.
type Pattern struct {
	N      int
	ColPtr []int
	Rows   []int

	once sync.Once
	sym  *symbolic
}

// PatternFromEntries builds a pattern for an n×n matrix from coordinate
// lists (duplicates are merged, rows sorted per column). rows and cols must
// have equal length with entries in [0, n).
func PatternFromEntries(n int, rows, cols []int) *Pattern {
	if len(rows) != len(cols) {
		panic("sparse: PatternFromEntries rows/cols length mismatch")
	}
	count := make([]int, n+1)
	for k, j := range cols {
		if j < 0 || j >= n || rows[k] < 0 || rows[k] >= n {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %d×%d", rows[k], j, n, n))
		}
		count[j+1]++
	}
	colPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + count[j+1]
	}
	rr := make([]int, len(rows))
	next := append([]int(nil), colPtr...)
	for k, j := range cols {
		rr[next[j]] = rows[k]
		next[j]++
	}
	// Sort and dedup each column.
	outPtr := make([]int, n+1)
	out := make([]int, 0, len(rr))
	for j := 0; j < n; j++ {
		col := rr[colPtr[j]:colPtr[j+1]]
		sort.Ints(col)
		for i, r := range col {
			if i > 0 && r == col[i-1] {
				continue
			}
			out = append(out, r)
		}
		outPtr[j+1] = len(out)
	}
	return &Pattern{N: n, ColPtr: outPtr, Rows: out}
}

// NNZ returns the number of structural nonzeros.
func (p *Pattern) NNZ() int { return p.ColPtr[p.N] }

// IndexOf returns the value index of entry (i, j), or -1 when the entry is
// not part of the pattern. Binary search over the (short, sorted) column.
func (p *Pattern) IndexOf(i, j int) int {
	lo, hi := p.ColPtr[j], p.ColPtr[j+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch r := p.Rows[mid]; {
		case r == i:
			return mid
		case r < i:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// CSC is a square sparse matrix: a shared immutable Pattern plus a private
// mutable value array aligned index-for-index with Pattern.Rows. Value
// arrays on one Pattern can be combined entrywise (the transient iteration
// matrix C/h + θ·J is a single fused loop over Val).
type CSC struct {
	P   *Pattern
	Val []float64
}

// NewCSC returns a zero-valued matrix on the pattern.
func NewCSC(p *Pattern) *CSC {
	return &CSC{P: p, Val: make([]float64, p.NNZ())}
}

// Zero clears all values (the pattern is untouched).
func (m *CSC) Zero() {
	for i := range m.Val {
		m.Val[i] = 0
	}
}

// Add accumulates v into entry (i, j). The entry must exist in the pattern:
// stamping outside the precomputed pattern is a topology bug, not a numeric
// condition, so it panics.
func (m *CSC) Add(i, j int, v float64) {
	k := m.P.IndexOf(i, j)
	if k < 0 {
		panic(fmt.Sprintf("sparse: stamp outside pattern at (%d,%d)", i, j))
	}
	m.Val[k] += v
}

// At returns entry (i, j), zero when outside the pattern.
func (m *CSC) At(i, j int) float64 {
	if k := m.P.IndexOf(i, j); k >= 0 {
		return m.Val[k]
	}
	return 0
}

// MaxAbs returns the largest absolute value (the scale used for pivot
// tolerances, mirroring the dense factorization).
func (m *CSC) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Val {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// MulVecInto computes dst = A·x without allocating. dst must not alias x.
func (m *CSC) MulVecInto(dst, x linalg.Vec) linalg.Vec {
	n := m.P.N
	if len(dst) != n || len(x) != n {
		panic("sparse: MulVecInto dimension mismatch")
	}
	if n > 0 && &dst[0] == &x[0] {
		panic("sparse: MulVecInto dst must not alias x")
	}
	for i := range dst {
		dst[i] = 0
	}
	colPtr, rows, val := m.P.ColPtr[:n+1], m.P.Rows, m.Val
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		for k := colPtr[j]; k < colPtr[j+1]; k++ {
			dst[rows[k]] += val[k] * xj
		}
	}
	return dst
}

// MulMatInto computes dst = A·b for a dense b without allocating: each
// sparse entry A(i,j) contributes Val·b[j,:] to dst[i,:], a row-major-
// friendly SAXPY costing O(nnz·cols) instead of the dense O(n²·cols).
func (m *CSC) MulMatInto(dst, b *linalg.Mat) *linalg.Mat {
	n := m.P.N
	if b.Rows != n || dst.Rows != n || dst.Cols != b.Cols {
		panic("sparse: MulMatInto dimension mismatch")
	}
	if n > 0 && b.Cols > 0 && &dst.Data[0] == &b.Data[0] {
		panic("sparse: MulMatInto dst must not alias b")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	cols := b.Cols
	for j := 0; j < n; j++ {
		brow := b.Data[j*cols : (j+1)*cols]
		for k := m.P.ColPtr[j]; k < m.P.ColPtr[j+1]; k++ {
			v := m.Val[k]
			if v == 0 {
				continue
			}
			drow := dst.Data[m.P.Rows[k]*cols : (m.P.Rows[k]+1)*cols]
			for c, bv := range brow {
				drow[c] += v * bv
			}
		}
	}
	return dst
}

// ToDense scatters the matrix into dst (n×n, zeroed first). Used by tests
// and the dense cross-checks.
func (m *CSC) ToDense(dst *linalg.Mat) *linalg.Mat {
	n := m.P.N
	if dst == nil {
		dst = linalg.NewMat(n, n)
	}
	if dst.Rows != n || dst.Cols != n {
		panic("sparse: ToDense dimension mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for j := 0; j < n; j++ {
		for k := m.P.ColPtr[j]; k < m.P.ColPtr[j+1]; k++ {
			dst.Set(m.P.Rows[k], j, m.Val[k])
		}
	}
	return dst
}

// FromDense builds a pattern+values CSC of the square matrix a holding
// exactly its entries that are not zero, rows ascending within each column.
// It counts them first, so the result takes five allocations whatever its
// size.
func FromDense(a *linalg.Mat) *CSC {
	n, nnz := a.Rows, 0
	for _, v := range a.Data {
		if v != 0 {
			nnz++
		}
	}
	p := &Pattern{N: n, ColPtr: make([]int, n+1), Rows: make([]int, 0, nnz)}
	m := &CSC{P: p, Val: make([]float64, 0, nnz)}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if v := a.At(i, j); v != 0 {
				p.Rows = append(p.Rows, i)
				m.Val = append(m.Val, v)
			}
		}
		p.ColPtr[j+1] = len(p.Rows)
	}
	return m
}
