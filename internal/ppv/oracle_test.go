package ppv_test

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/pss"
)

// refAdjoint is the time-domain adjoint written per corner, as the package
// computed it before every extraction ran on the lanes: the monodromy's left
// eigenvector at 1, RHS Jacobians A(t_k) = −C⁻¹·J(x(t_k), t_k) on the grid,
// the backward recursion
//
//	w_i = (I + h/2·A_i)ᵀ (I − h/2·A_{i+1})⁻ᵀ w_{i+1},
//
// then the pointwise normalization v_i·ẋₛ(t_i) = 1 with ẋₛ = −C⁻¹·f, and
// the current-injection form VI = C⁻ᵀ v. It returns the PPV samples and the
// normalization spread; it is the oracle FromSolutionsBatch is held to bit
// for bit.
func refAdjoint(sys *circuit.System, sol *pss.Solution) ([]linalg.Vec, float64, error) {
	n, k := sys.N, sol.K()
	if k < 8 {
		return nil, 0, errors.New("ppv: PSS grid too coarse")
	}
	h := sol.T0 / float64(k)
	_, w, err := linalg.InverseIteration(sol.Monodromy.T(), 1.0, 300, 1e-12)
	if err != nil {
		return nil, 0, err
	}
	as := make([]*linalg.Mat, k+1)
	f, j := linalg.NewVec(n), linalg.NewMat(n, n)
	for i := range as {
		sys.EvalFJ(sol.States[i], sol.Grid[i], f, j)
		as[i] = linalg.NewMat(n, n)
		sys.CLU.SolveMatInto(as[i], j)
		as[i].Scale(-1)
	}
	adj := make([]linalg.Vec, k+1)
	adj[k] = w.Clone()
	lhs, tmp := linalg.NewMat(n, n), linalg.NewVec(n)
	var lu linalg.LU
	for i := k - 1; i >= 0; i-- {
		lhs.Zero()
		for d := 0; d < n; d++ {
			lhs.Set(d, d, 1)
		}
		lhs.AddScaled(-h/2, as[i+1])
		if err := lu.FactorizeInto(lhs); err != nil {
			return nil, 0, fmt.Errorf("adjoint step %d singular: %w", i, err)
		}
		lu.SolveTInto(tmp, adj[i+1])
		wi := as[i].MulVecTInto(linalg.NewVec(n), tmp)
		wi.Scale(h / 2)
		wi.Add(wi, tmp)
		adj[i] = wi
	}
	vi := make([]linalg.Vec, k+1)
	minC, maxC := math.Inf(1), math.Inf(-1)
	for i := range vi {
		xd := sys.EvalF(sol.States[i], sol.Grid[i], nil)
		xd.Scale(-1)
		c := adj[i].Dot(sys.CLU.Solve(xd))
		if c == 0 {
			return nil, 0, fmt.Errorf("degenerate normalization at grid %d", i)
		}
		minC, maxC = math.Min(minC, c), math.Max(maxC, c)
		v := adj[i].Clone()
		v.Scale(1 / c)
		vi[i] = sys.CLU.SolveTBuf(linalg.NewVec(n), v, linalg.NewVec(n))
	}
	normErr := 0.0
	if maxC != 0 {
		normErr = (maxC - minC) / math.Max(math.Abs(maxC), math.Abs(minC))
	}
	return vi, normErr, nil
}
