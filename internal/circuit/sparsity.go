package circuit

import (
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// buildPattern computes the structural pattern of the circuit Jacobian
// df/dx — the positions the dense plan's kernels resolved, which include
// the Gmin diagonal — UNIONED with the capacitance pattern. One pattern
// serves every sparse consumer — DC Newton (J + gmin diagonal), the
// transient iteration matrix C/h + θ·J (needs pattern(C) ∪ pattern(J)), and
// the sensitivity systems — so value arrays combine entrywise with no
// index translation, and every sparse LU on it shares one symbolic
// analysis.
func (s *System) buildPattern() {
	n, cp := s.N, s.cNZ.P
	size := cp.NNZ()
	for _, sl := range s.dense.lay.slabs {
		size += len(sl)
	}
	rows, cols := make([]int, 0, size), make([]int, 0, size)
	for j := 0; j < n; j++ {
		for k := cp.ColPtr[j]; k < cp.ColPtr[j+1]; k++ {
			rows, cols = append(rows, cp.Rows[k]), append(cols, j)
		}
	}
	for _, sl := range s.dense.lay.slabs {
		for _, v := range sl {
			if v >= 0 { // dense slots are row·n + col
				rows, cols = append(rows, v/n), append(cols, v%n)
			}
		}
	}
	s.sparsePattern = sparse.PatternFromEntries(n, rows, cols)
}

// buildSparse computes C's values on SparsePattern and the one-lane plan
// on it.
func (s *System) buildSparse() {
	pat, n := s.SparsePattern(), s.N
	s.sparseC = sparse.NewCSC(pat) // zero where C has no entry
	for j := 0; j < n; j++ {
		for k := pat.ColPtr[j]; k < pat.ColPtr[j+1]; k++ {
			s.sparseC.Val[k] = s.C.At(pat.Rows[k], j)
		}
	}
	var err error
	if s.sparse, err = newPlan(s.self[:], pat); err != nil {
		panic(err) // the dense plan of these devices built, and the pattern holds its slots
	}
}

// SparsePattern returns the precomputed structural pattern of the circuit's
// Jacobian (device stamps ∪ capacitance ∪ diagonal), computed once per
// System and shared read-only by every sparse workspace, stepper and solver
// scratch.
func (s *System) SparsePattern() *sparse.Pattern {
	s.patternOnce.Do(s.buildPattern)
	return s.sparsePattern
}

// SparseC returns the capacitance matrix laid out on SparsePattern. The
// returned CSC is shared and read-only: steppers combine its values with
// their private Jacobian values (C/h + θ·J runs index-aligned over Val).
func (s *System) SparseC() *sparse.CSC {
	s.sparseOnce.Do(s.buildSparse)
	return s.sparseC
}

// sparsePlan returns the one-lane plan on SparsePattern.
func (s *System) sparsePlan() *plan {
	s.sparseOnce.Do(s.buildSparse)
	return s.sparse
}

// ResolveBackend maps a (possibly Auto) backend request to dense or sparse
// for this system, Auto by the density of SparsePattern (see
// linalg.Backend.Resolve). A system that resolves dense computes the
// pattern only, not the sparse C or plan.
func (s *System) ResolveBackend(b linalg.Backend) linalg.Backend {
	if b != linalg.BackendAuto {
		return b
	}
	return b.Resolve(s.N, s.SparsePattern().NNZ())
}
