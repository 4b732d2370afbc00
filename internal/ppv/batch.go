package ppv

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/pss"
)

// FromSolutionsBatch extracts the time-domain PPV of every converged lane of
// a batched shooting solve in one shared backward sweep over the grid. At
// each grid index a single EvalBatchAt computes every lane's residual and
// Jacobian together; the residual feeds the normalization's ẋₛ and the
// Jacobian the adjoint recursion's A(t), so a lane costs one device
// evaluation per grid point, not one for RHSJacobian and one for XDot. The
// adjoint recursion and pointwise normalization are interleaved into the
// same backward pass, so only the current and next grid Jacobians are ever
// held per lane.
//
// sols[k] == nil lanes are skipped (ppvs[k] = nil, errs[k] = nil); per-lane
// extraction failures land in errs[k]. A non-nil err reports structural
// misuse only. Lanes are independent, so a lane's PPV is bit for bit the
// one-lane FromSolution of its Solution, and bit for bit the adjoint
// written per corner with RHSJacobian and XDot (the package tests keep it
// as the oracle): the batch evaluator stamps the same device arithmetic in
// the same order, and the recursion and normalization use the same floating
// point expressions.
func FromSolutionsBatch(ctx context.Context, b *circuit.Batch, sols []*pss.Solution) (ppvs []*PPV, errs []error, err error) {
	K, n := b.K, b.N
	if len(sols) != K {
		return nil, nil, fmt.Errorf("ppv: %d solutions for a %d-lane batch", len(sols), K)
	}
	defer diag.SpanFrom(ctx, "ppv.adjoint.batch").End()
	dm := diag.FromContext(ctx)

	ppvs = make([]*PPV, K)
	errs = make([]error, K)
	kg := -1 // shared grid point count
	active := make([]int, 0, K)
	for k, sol := range sols {
		if sol == nil {
			continue
		}
		switch {
		case sol.K() < 8:
			errs[k] = errors.New("ppv: PSS grid too coarse")
		case kg == -1 || sol.K() == kg:
			kg = sol.K()
			active = append(active, k)
		default:
			errs[k] = fmt.Errorf("ppv: lane %d grid has %d points, batch grid has %d", k, sol.K(), kg)
		}
	}
	if len(active) == 0 {
		return ppvs, errs, nil
	}
	prune := func(lanes []int) []int {
		w := 0
		for _, k := range lanes {
			if errs[k] == nil {
				lanes[w] = k
				w++
			}
		}
		return lanes[:w]
	}

	// 1. Left eigenvector of each lane's monodromy for the eigenvalue at 1.
	ws := make([]linalg.Vec, K)
	for _, k := range active {
		_, w, werr := linalg.InverseIteration(sols[k].Monodromy.T(), 1.0, 300, 1e-12)
		if werr != nil {
			errs[k] = fmt.Errorf("ppv: monodromy left eigenvector: %w", werr)
			continue
		}
		ws[k] = w.Clone()
	}
	active = prune(active)

	// 2. One backward sweep: at grid index i, a single batched evaluation
	// yields every lane's J and f. Per lane that gives A_i = −C⁻¹J and
	// ẋ_i = −C⁻¹f; the adjoint step w_i = (I + h/2·A_i)ᵀ(I − h/2·A_{i+1})⁻ᵀ
	// w_{i+1} then consumes A_{i+1} from the previous sweep position, and the
	// pointwise normalization v_i = C⁻ᵀ(w_i / w_i·ẋ_i) runs in place.
	bw := b.NewWorkspace()
	bw.SetMetrics(dm)
	x := make([]float64, K*n)
	tl := make([]float64, K)
	aCur := make([]*linalg.Mat, K)
	aNext := make([]*linalg.Mat, K)
	wSpare := make([]linalg.Vec, K) // the buffer w_i is computed into, swapped with ws[k]
	vis := make([][]linalg.Vec, K)
	minC := make([]float64, K)
	maxC := make([]float64, K)
	h := make([]float64, K)
	for _, k := range active {
		aCur[k] = linalg.NewMat(n, n)
		aNext[k] = linalg.NewMat(n, n)
		wSpare[k] = linalg.NewVec(n)
		// One block per lane holds its kg+1 PPV samples.
		blk := make([]float64, (kg+1)*n)
		vis[k] = make([]linalg.Vec, kg+1)
		for i := range vis[k] {
			vis[k][i] = linalg.Vec(blk[i*n : (i+1)*n : (i+1)*n])
		}
		minC[k], maxC[k] = math.Inf(1), math.Inf(-1)
		h[k] = sols[k].T0 / float64(kg)
	}
	jb := linalg.NewMat(n, n)
	fb := linalg.NewVec(n)
	xd := linalg.NewVec(n)
	lhs := linalg.NewMat(n, n)
	tmp := linalg.NewVec(n)
	vn := linalg.NewVec(n)
	var lu linalg.LU
	for i := kg; i >= 0 && len(active) > 0; i-- {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		for _, k := range active {
			copy(x[k*n:(k+1)*n], sols[k].States[i])
			tl[k] = sols[k].Grid[i]
		}
		bw.SetActive(active)
		bw.EvalBatchAt(x, tl, true)
		for _, k := range active {
			sys := b.Systems[k]
			// A_i = −C⁻¹J, the same solve-then-negate order as RHSJacobianInto.
			bw.LaneJDense(jb, k)
			sys.CLU.SolveMatInto(aCur[k], jb)
			aCur[k].Scale(-1)
			if i < kg {
				// Adjoint step from w_{i+1} (in ws[k]) to w_i.
				lhs.Zero()
				for d := 0; d < n; d++ {
					lhs.Set(d, d, 1)
				}
				lhs.AddScaled(-h[k]/2, aNext[k])
				ferr := lu.FactorizeInto(lhs)
				dm.Inc(diag.LUFactorizations)
				if lu.ReusedBuffers() {
					dm.Inc(diag.LUFactorizationsReused)
				}
				if ferr != nil {
					errs[k] = fmt.Errorf("ppv: adjoint step %d singular: %w", i, ferr)
					continue
				}
				lu.SolveTInto(tmp, ws[k])
				dm.Inc(diag.LUSolves)
				wi := aCur[k].MulVecTInto(wSpare[k], tmp)
				wi.Scale(h[k] / 2)
				wi.Add(wi, tmp)
				ws[k], wSpare[k] = wi, ws[k]
			}
			// Normalization at i: ẋ_i from the same evaluation's residual.
			copy(fb, bw.LaneF(k))
			fb.Scale(-1)
			sys.CLU.SolveInto(xd, fb)
			c := ws[k].Dot(xd)
			if c == 0 {
				errs[k] = fmt.Errorf("ppv: degenerate normalization at grid %d", i)
				continue
			}
			if c < minC[k] {
				minC[k] = c
			}
			if c > maxC[k] {
				maxC[k] = c
			}
			copy(vn, ws[k])
			vn.Scale(1 / c)
			dm.Inc(diag.LUSolves)
			sys.CLU.SolveTBuf(vis[k][i], vn, vn) // CLU is shared: no LU-held scratch
			aCur[k], aNext[k] = aNext[k], aCur[k]
		}
		active = prune(active)
	}

	for _, k := range active {
		normErr := 0.0
		if maxC[k] != 0 {
			normErr = (maxC[k] - minC[k]) / math.Max(math.Abs(maxC[k]), math.Abs(minC[k]))
		}
		ppvs[k] = finish(sols[k], vis[k], normErr)
	}
	return ppvs, errs, nil
}
