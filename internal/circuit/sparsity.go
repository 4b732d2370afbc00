package circuit

import (
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// buildPattern computes the structural pattern of the circuit Jacobian
// df/dx — the dense row-major slots the kernels resolved (slabs), which
// include the Gmin diagonal — UNIONED with the capacitance pattern cp. One
// pattern serves every consumer — the DC Newton (J + gmin diagonal), the
// transient iteration matrix C/h + θ·J (needs pattern(C) ∪ pattern(J)), and
// the sensitivity systems — so value arrays combine entrywise with no index
// translation, and every sparse LU on it shares one symbolic analysis.
func buildPattern(n int, cp *sparse.Pattern, slabs [][]int) *sparse.Pattern {
	size := cp.NNZ()
	for _, sl := range slabs {
		size += len(sl)
	}
	rows, cols := make([]int, 0, size), make([]int, 0, size)
	for j := 0; j < n; j++ {
		for k := cp.ColPtr[j]; k < cp.ColPtr[j+1]; k++ {
			rows, cols = append(rows, cp.Rows[k]), append(cols, j)
		}
	}
	for _, sl := range slabs {
		for _, v := range sl {
			if v >= 0 { // dense slots are row·n + col
				rows, cols = append(rows, v/n), append(cols, v%n)
			}
		}
	}
	return sparse.PatternFromEntries(n, rows, cols)
}

// SparsePattern returns the structural pattern of the circuit's Jacobian
// (device stamps ∪ capacitance ∪ diagonal), built at Assemble and shared
// read-only by every workspace, stepper and solve: the Jacobian values of
// every evaluation live on it.
func (s *System) SparsePattern() *sparse.Pattern { return s.pattern }

// SparseC returns the capacitance matrix laid out on SparsePattern. The
// returned CSC is shared and read-only: steppers combine its values with
// their private Jacobian values (C/h + θ·J runs index-aligned over Val).
func (s *System) SparseC() *sparse.CSC { return s.sparseC }

// ResolveBackend maps a (possibly Auto) backend request to dense or sparse
// for this system, Auto by the density of SparsePattern (see
// linalg.Backend.Resolve).
func (s *System) ResolveBackend(b linalg.Backend) linalg.Backend {
	if b != linalg.BackendAuto {
		return b
	}
	return b.Resolve(s.N, s.pattern.NNZ())
}
