package linalg

// Backend selects the linear-algebra implementation an analysis runs its
// Newton/transient linear solves through. The zero value (BackendAuto) picks
// per circuit from the density of its Jacobian pattern: dense partial-
// pivoting LU for the small, nearly full matrices of a lone ring, sparse
// KLU-style LU wherever the pattern is sparse enough for the sparse
// factorization to win — the SPICE-level serial adder (14 nodes, density
// 0.19) and the coupled oscillator arrays alike.
type Backend int

const (
	// BackendAuto selects dense or sparse from the Jacobian density (see
	// Resolve). This is the default.
	BackendAuto Backend = iota
	// BackendDense forces the dense LU path (internal/linalg.LU).
	BackendDense
	// BackendSparse forces the CSC + KLU-style factorization path
	// (internal/linalg/sparse).
	BackendSparse
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// SparseDensityMax is the largest Jacobian density (nnz/n²) for which
// BackendAuto selects sparse. Factor + solve of the transient iteration
// matrix C/h + J/2 (BenchmarkIterationLU) crosses over between density
// 0.39, where the backends tie (a two-ring array, 6 nodes), and 0.22, where
// sparse wins (a 9-stage ring); the 3-stage ring (0.67) stays dense and the
// adder (0.19) runs sparse, 1.9× faster per factor + solve.
const SparseDensityMax = 0.25

// Resolve maps an Auto backend to a concrete one for a system with n
// unknowns and nnz structural Jacobian nonzeros: sparse when
// nnz ≤ SparseDensityMax·n², dense otherwise. Explicit backends pass
// through unchanged.
func (b Backend) Resolve(n, nnz int) Backend {
	if b != BackendAuto {
		return b
	}
	if float64(nnz) > SparseDensityMax*float64(n)*float64(n) {
		return BackendDense
	}
	return BackendSparse
}
