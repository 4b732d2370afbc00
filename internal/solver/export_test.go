package solver

import (
	"context"

	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// Stats is what one Newton solve did.
type Stats = stats

// The Newton iteration's settings, for tests that reason about them.
const (
	MaxIter = maxIter
	AbsTol  = absTol
	MaxStep = maxStep
)

// DCOperatingPointBackend is DCOperatingPointCtx on backend be.
var DCOperatingPointBackend = dcOperatingPoint

// DCSolve runs the continuation ladder of fn on pattern pat and backend be
// from x0.
var DCSolve = dcSolve

// NewSolve returns damped Newton solves of fn at unit scales on pattern
// pat and backend be, every one through the same buffers, as the stages
// of the continuation ladder run; a returned iterate aliases them.
func NewSolve(fn Func, pat *sparse.Pattern, be linalg.Backend) func(ctx context.Context, x0 linalg.Vec) (linalg.Vec, Stats, error) {
	nw := newNewton(fn, pat, be)
	return func(ctx context.Context, x0 linalg.Vec) (linalg.Vec, Stats, error) {
		return nw.solve(ctx, x0, 1, 1)
	}
}

// Solve runs one damped Newton solve of fn at unit scales from x0 on
// pattern pat and backend be.
func Solve(ctx context.Context, fn Func, pat *sparse.Pattern, be linalg.Backend, x0 linalg.Vec) (linalg.Vec, Stats, error) {
	return NewSolve(fn, pat, be)(ctx, x0)
}
