package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Mat is a dense real matrix in row-major storage.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices; all rows must share one length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows in FromRows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Addf adds v to element (i, j); the standard "stamping" primitive used by
// the circuit assembler.
func (m *Mat) Addf(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Mat) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Col returns a copy of column j.
func (m *Mat) Col(j int) Vec {
	c := NewVec(m.Rows)
	for i := 0; i < m.Rows; i++ {
		c[i] = m.At(i, j)
	}
	return c
}

// SetCol overwrites column j with v.
func (m *Mat) SetCol(j int, v Vec) {
	for i := 0; i < m.Rows; i++ {
		m.Set(i, j, v[i])
	}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies a into m; the shapes must match.
func (m *Mat) CopyFrom(a *Mat) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	copy(m.Data, a.Data)
}

// Zero clears every entry.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every entry by s.
func (m *Mat) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled performs m += s*a elementwise.
func (m *Mat) AddScaled(s float64, a *Mat) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("linalg: AddScaled shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += s * a.Data[i]
	}
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns m·v.
func (m *Mat) MulVec(v Vec) Vec {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", m.Cols, len(v)))
	}
	out := NewVec(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecTInto computes dst = mᵀ·v without allocating and returns dst. dst
// must not alias v.
func (m *Mat) MulVecTInto(dst, v Vec) Vec {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecT dimension mismatch %d vs %d", m.Rows, len(v)))
	}
	if len(dst) != m.Cols {
		panic("linalg: MulVecTInto dst length mismatch")
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		for j, x := range row {
			dst[j] += x * vi
		}
	}
	return dst
}

func (m *Mat) Mul(a *Mat) *Mat {
	return m.MulInto(NewMat(m.Rows, a.Cols), a)
}

// MulInto computes m·a into dst and returns dst. dst must not alias m or a;
// its previous contents are discarded. Bitwise identical to Mul (same
// accumulation order).
func (m *Mat) MulInto(dst, a *Mat) *Mat {
	if m.Cols != a.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %d vs %d", m.Cols, a.Rows))
	}
	if dst.Rows != m.Rows || dst.Cols != a.Cols {
		panic("linalg: MulInto shape mismatch")
	}
	if len(dst.Data) > 0 && (sameData(dst, m) || sameData(dst, a)) {
		panic("linalg: MulInto dst must not alias an operand")
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			mik := m.At(i, k)
			if mik == 0 {
				continue
			}
			arow := a.Data[k*a.Cols : (k+1)*a.Cols]
			orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, x := range arow {
				orow[j] += mik * x
			}
		}
	}
	return dst
}

// sameData reports whether two matrices share their backing array's start.
func sameData(a, b *Mat) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// NormInf returns the maximum absolute row sum.
func (m *Mat) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for _, x := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			s += math.Abs(x)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormFrob returns the Frobenius norm.
func (m *Mat) NormFrob() float64 { return Vec(m.Data).Norm2() }

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
			if j < m.Cols-1 {
				b.WriteByte('\t')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
