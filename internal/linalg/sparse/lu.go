package sparse

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// LU is a KLU-style sparse LU factorization with a hard split between the
// symbolic phase (fill-reducing minimum-degree order + Gilbert–Peierls
// reachability giving the exact fill pattern of L and U) and the numeric
// phase (refactor: overwrite the factor values for new matrix values on the
// same pattern, zero allocations, no pattern work). The symbolic phase is a
// property of the Pattern: it is computed ONCE per Pattern, on the first
// factorization of any LU on it, and shared read-only by every LU on that
// Pattern — scalar runs, each lane of a batch, concurrent workers.
//
// Pivoting is static on the (permuted) diagonal — the standard
// circuit-simulation choice: the transient iteration matrix C/h + θ·J and
// the gmin-stabilized DC Jacobian are diagonally dominant enough that
// reusing the pivot order is safe, and it is exactly what makes the
// refactor-only hot path possible. A pivot that underflows the matrix scale
// returns an error wrapping linalg.ErrSingular, same sentinel as the dense
// factorization, so the public phlogon.ErrSingularJacobian taxonomy covers
// both backends.
//
// Like the dense linalg.LU, one LU value's methods must not be called
// concurrently (the factor values and the scatter/solve work arrays are its
// own), but any number of goroutines may hold their own LU over one shared
// Pattern.
type LU struct {
	pat *Pattern  // pattern of the factored values; identity-compared by FactorizeInto
	sym *symbolic // pat's analysis, shared
	lx  []float64 // L values, on sym.li
	ux  []float64 // U values, on sym.ui
	d   []float64 // pivots (diagonal of U)
	x   []float64 // dense scatter accumulator
	w   []float64 // solve work

	reused bool // last FactorizeInto was a refactor into this LU's factors
}

// symbolic is the analysis of one Pattern: the pivot order and the exact
// structure of L and U in permuted coordinates. It is immutable once built.
type symbolic struct {
	perm  []int // perm[k] = original index of the k-th pivot
	iperm []int
	// L: strictly lower triangular, CSC in permuted coordinates.
	lp, li []int
	// U: strictly upper triangular, CSC in permuted coordinates; the row
	// indices of each column are stored in the DFS topological order the
	// analysis discovered — refactor replays updates in exactly this
	// order, which is what makes the numeric phase pattern-blind.
	up, ui []int
	fillin int // structural fill: nnz(L)+nnz(U)+n − nnz(A)
}

// Factorize analyzes and factorizes a, returning a new LU.
func Factorize(a *CSC) (*LU, error) {
	f := &LU{}
	if err := f.FactorizeInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorizeInto (re)factorizes a. When a shares the Pattern of the previous
// call, only the numeric refactor runs into the retained factors — zero
// allocations, the KLU hot path; observe via ReusedSymbolic. A new pattern
// sizes the factors from the pattern's symbolic analysis in one allocation,
// running the analysis first if no LU on that pattern has.
func (f *LU) FactorizeInto(a *CSC) error {
	f.reused = f.pat == a.P
	if !f.reused {
		f.bind(a.P)
	}
	return f.refactor(a)
}

// bind points f at p's symbolic analysis and sizes its numeric arrays from
// one backing allocation.
func (f *LU) bind(p *Pattern) {
	f.pat, f.sym = p, p.analysis()
	n, nl, nu := p.N, len(f.sym.li), len(f.sym.ui)
	buf := make([]float64, nl+nu+3*n)
	f.lx, buf = buf[:nl:nl], buf[nl:]
	f.ux, buf = buf[:nu:nu], buf[nu:]
	f.d, f.x, f.w = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n]
}

// ReusedSymbolic reports whether the most recent FactorizeInto was a
// numeric refactor into this LU's retained factors on its pattern.
func (f *LU) ReusedSymbolic() bool { return f.reused }

// FillIn returns the number of structural fill entries the symbolic
// factorization created beyond the matrix pattern itself.
func (f *LU) FillIn() int { return f.sym.fillin }

// analysis returns p's symbolic analysis, running it on first use.
func (p *Pattern) analysis() *symbolic {
	p.once.Do(func() { p.sym = analyze(p) })
	return p.sym
}

// analyze runs the symbolic phase: minimum-degree ordering, then
// Gilbert–Peierls reachability to compute the exact pattern of L and U and
// the per-column topological update order.
func analyze(p *Pattern) *symbolic {
	n := p.N
	s := &symbolic{perm: MinDegreeOrder(p), iperm: make([]int, n)}
	for k, o := range s.perm {
		s.iperm[o] = k
	}
	work := make([]int, 4*n)
	mark, stack, pstk, topo := work[:n], work[n:2*n], work[2*n:3*n], work[3*n:]
	for i := range mark {
		mark[i] = -1
	}
	s.lp = append(make([]int, 0, n+1), 0)
	s.up = append(make([]int, 0, n+1), 0)

	for j := 0; j < n; j++ {
		// DFS over the graph of already-computed L columns from the nonzero
		// rows of permuted A(:,j); reverse postorder = topological order.
		head := n
		origCol := s.perm[j]
		for k := p.ColPtr[origCol]; k < p.ColPtr[origCol+1]; k++ {
			i := s.iperm[p.Rows[k]]
			if mark[i] == j {
				continue
			}
			// Iterative DFS from i.
			depth := 0
			stack[0] = i
			mark[i] = j
			if i < j {
				pstk[0] = s.lp[i]
			} else {
				pstk[0] = -1 // no children: L column i not computed yet
			}
			for depth >= 0 {
				v := stack[depth]
				advanced := false
				if pstk[depth] >= 0 {
					end := s.lp[v+1]
					for pstk[depth] < end {
						r := s.li[pstk[depth]]
						pstk[depth]++
						if mark[r] != j {
							mark[r] = j
							depth++
							stack[depth] = r
							if r < j {
								pstk[depth] = s.lp[r]
							} else {
								pstk[depth] = -1
							}
							advanced = true
							break
						}
					}
				}
				if !advanced {
					head--
					topo[head] = v
					depth--
				}
			}
		}
		// Partition the reach set: rows < j become U(:,j) (kept in topo
		// order), rows > j become L(:,j); j itself is the pivot slot.
		for t := head; t < n; t++ {
			if v := topo[t]; v < j {
				s.ui = append(s.ui, v)
			}
		}
		s.up = append(s.up, len(s.ui))
		for t := head; t < n; t++ {
			if v := topo[t]; v > j {
				s.li = append(s.li, v)
			}
		}
		s.lp = append(s.lp, len(s.li))
	}
	s.fillin = len(s.li) + len(s.ui) + n - p.NNZ()
	return s
}

// refactor overwrites the factor values for a's current values. Pure
// numeric replay of the symbolic pattern: zero allocations.
func (f *LU) refactor(a *CSC) error {
	p, s := f.pat, f.sym
	n := p.N
	scale := a.MaxAbs()
	if scale == 0 {
		if n == 0 {
			return nil
		}
		return fmt.Errorf("sparse: %w (zero matrix)", linalg.ErrSingular)
	}
	tol := scale * 1e-300 // absolute floor, mirroring the dense factorization
	x, lx, ux := f.x, f.lx, f.ux
	lp, li, up, ui, iperm := s.lp, s.li, s.up, s.ui, s.iperm
	for j := 0; j < n; j++ {
		// Zero the scatter accumulator over this column's factor pattern,
		// then scatter the permuted A column into it.
		for t := up[j]; t < up[j+1]; t++ {
			x[ui[t]] = 0
		}
		x[j] = 0
		for t := lp[j]; t < lp[j+1]; t++ {
			x[li[t]] = 0
		}
		origCol := s.perm[j]
		for k := p.ColPtr[origCol]; k < p.ColPtr[origCol+1]; k++ {
			x[iperm[p.Rows[k]]] += a.Val[k]
		}
		// Eliminate: process U rows in the stored topological order.
		for t := up[j]; t < up[j+1]; t++ {
			k := ui[t]
			xk := x[k]
			ux[t] = xk
			if xk == 0 {
				continue
			}
			for q := lp[k]; q < lp[k+1]; q++ {
				x[li[q]] -= xk * lx[q]
			}
		}
		piv := x[j]
		if math.Abs(piv) <= tol || math.IsNaN(piv) {
			return fmt.Errorf("sparse: %w (pivot %d, |pivot|=%.3g)", linalg.ErrSingular, j, math.Abs(piv))
		}
		f.d[j] = piv
		for t := lp[j]; t < lp[j+1]; t++ {
			lx[t] = x[li[t]] / piv
		}
	}
	return nil
}

// SolveInto solves A·x = b into dst and returns dst. dst may alias b (the
// solve runs in a pinned internal buffer); no allocation occurs.
func (f *LU) SolveInto(dst, b linalg.Vec) linalg.Vec {
	n, perm := f.pat.N, f.sym.perm
	if len(b) != n || len(dst) != n {
		panic("sparse: LU.SolveInto dimension mismatch")
	}
	w := f.w
	for k := 0; k < n; k++ {
		w[k] = b[perm[k]]
	}
	f.solvePermuted(w)
	for k := 0; k < n; k++ {
		dst[perm[k]] = w[k]
	}
	return dst
}

// solvePermuted runs L then U substitution on a right-hand side already in
// permuted coordinates, in place.
func (f *LU) solvePermuted(w []float64) {
	s := f.sym
	lp, li, up, ui, lx, ux, d := s.lp, s.li, s.up, s.ui, f.lx, f.ux, f.d
	n := len(d)
	for j := 0; j < n; j++ {
		xj := w[j]
		if xj == 0 {
			continue
		}
		for q := lp[j]; q < lp[j+1]; q++ {
			w[li[q]] -= xj * lx[q]
		}
	}
	for j := n - 1; j >= 0; j-- {
		xj := w[j] / d[j]
		w[j] = xj
		if xj == 0 {
			continue
		}
		for t := up[j]; t < up[j+1]; t++ {
			w[ui[t]] -= xj * ux[t]
		}
	}
}

// SolveMatInto solves A·X = B into dst, column by column through the pinned
// work vector; dst may alias b. Used by the sparse sensitivity propagation,
// where B is the (dense) monodromy right-hand side.
func (f *LU) SolveMatInto(dst, b *linalg.Mat) *linalg.Mat {
	n, perm := f.pat.N, f.sym.perm
	if b.Rows != n || dst.Rows != n || dst.Cols != b.Cols {
		panic("sparse: LU.SolveMatInto dimension mismatch")
	}
	w, cols := f.w, b.Cols
	for c := 0; c < cols; c++ {
		for k := 0; k < n; k++ {
			w[k] = b.Data[perm[k]*cols+c]
		}
		f.solvePermuted(w)
		for k := 0; k < n; k++ {
			dst.Data[perm[k]*cols+c] = w[k]
		}
	}
	return dst
}
