package solver

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
)

// DCOperatingPointCtx computes a DC solution of the assembled circuit at
// time t (sources evaluated at t, capacitors open). x0 seeds the iteration
// and must have one entry per free node; nil starts from all-zeros. The
// solve runs under a "dcop" span and counts circuit/Newton/LU work on the
// metrics carried by ctx. The linear-algebra backend is resolved by the
// density of the circuit's Jacobian pattern (see
// circuit.System.ResolveBackend).
func DCOperatingPointCtx(ctx context.Context, sys *circuit.System, x0 linalg.Vec, t float64) (linalg.Vec, error) {
	return dcOperatingPoint(ctx, sys, x0, t, linalg.BackendAuto)
}

// dcOperatingPoint is DCOperatingPointCtx on backend be.
func dcOperatingPoint(ctx context.Context, sys *circuit.System, x0 linalg.Vec, t float64, be linalg.Backend) (linalg.Vec, error) {
	if x0 == nil {
		x0 = linalg.NewVec(sys.N)
	} else if len(x0) != sys.N {
		return nil, fmt.Errorf("solver: x0 has length %d, want %d", len(x0), sys.N)
	}
	defer diag.SpanFrom(ctx, "dcop").End()
	ws := sys.NewWorkspace()
	ws.SetMetrics(diag.FromContext(ctx))
	fn := func(x, f linalg.Vec, jv []float64, gminScale, srcScale float64) {
		ws.EvalScaled(x, t, f, jv, gminScale, srcScale)
	}
	return dcSolve(ctx, fn, sys.SparsePattern(), sys.ResolveBackend(be), x0)
}
