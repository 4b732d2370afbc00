package parallel

import (
	"context"

	"repro/internal/diag"
)

// ForWorkerCtx is ForWorker with per-worker diagnostics: when ctx carries a
// *diag.Metrics, each worker receives a context holding a private child
// collector (no cross-worker contention on the hot path) and the children are
// merged back into the parent when all items finish. With no metrics on ctx
// every worker just receives ctx, so the disabled path adds one pointer test.
func ForWorkerCtx(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) error) error {
	parent := diag.FromContext(ctx)
	if parent == nil {
		return ForWorker(ctx, n, workers, func(w, i int) error { return fn(ctx, w, i) })
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	children := parent.Fork(w)
	ctxs := make([]context.Context, w)
	for i := range ctxs {
		ctxs[i] = diag.WithMetrics(ctx, children[i])
	}
	err := ForWorker(ctx, n, w, func(wk, i int) error { return fn(ctxs[wk], wk, i) })
	parent.Merge(children...)
	return err
}

// MapWorkerCtx is Map with the owning worker's index and context passed to
// fn, under the same per-worker diagnostics contract as ForWorkerCtx.
func MapWorkerCtx[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForWorkerCtx(ctx, n, workers, func(wctx context.Context, w, i int) error {
		v, err := fn(wctx, w, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
