package solver

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/diag"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// DCOperatingPoint computes a DC solution of the assembled circuit at time t
// (sources evaluated at t, capacitors open). x0 seeds the iteration; nil
// starts from all-zeros.
func DCOperatingPoint(sys *circuit.System, x0 linalg.Vec, t float64) (linalg.Vec, error) {
	return DCOperatingPointCtx(context.Background(), sys, x0, t)
}

// DCOperatingPointCtx is DCOperatingPoint with cost diagnostics: the solve
// runs under a "dcop" span and counts circuit/Newton/LU work on the metrics
// carried by ctx. The linear-algebra backend is auto-resolved by the
// density of the circuit's Jacobian pattern (see
// circuit.System.ResolveBackend).
func DCOperatingPointCtx(ctx context.Context, sys *circuit.System, x0 linalg.Vec, t float64) (linalg.Vec, error) {
	return DCOperatingPointBackendCtx(ctx, sys, x0, t, linalg.BackendAuto)
}

// DCOperatingPointBackendCtx is DCOperatingPointCtx with an explicit
// linear-algebra backend selection.
func DCOperatingPointBackendCtx(ctx context.Context, sys *circuit.System, x0 linalg.Vec, t float64, backend linalg.Backend) (linalg.Vec, error) {
	defer diag.SpanFrom(ctx, "dcop").End()
	if x0 == nil {
		x0 = linalg.NewVec(sys.N)
	}
	ws := sys.NewWorkspace()
	ws.SetMetrics(diag.FromContext(ctx))
	// One scratch serves the whole escalation ladder; it dies with this call,
	// so the returned alias into it is safely caller-owned.
	if sys.ResolveBackend(backend) == linalg.BackendSparse {
		pat := sys.SparsePattern()
		fn := func(x linalg.Vec, f linalg.Vec, sj *sparse.CSC, gminScale, srcScale float64) {
			ws.EvalScaledSparse(x, t, f, sj, gminScale, srcScale)
		}
		return DCSolveSparseWith(ctx, fn, pat, x0, DefaultOptions(), NewSparseScratch(pat))
	}
	fn := func(x linalg.Vec, f linalg.Vec, j *linalg.Mat, gminScale, srcScale float64) {
		ws.EvalScaled(x, t, f, j, gminScale, srcScale)
	}
	return DCSolveWith(ctx, fn, x0, DefaultOptions(), NewScratch(sys.N))
}
