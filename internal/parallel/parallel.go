// Package parallel provides the small, deterministic worker-pool machinery
// the analysis engines fan out on: bounded goroutine pools with
// context.Context cancellation, ordered result collection, and a
// deterministic (strided) work split so a computation's output is
// bit-identical at any worker count.
//
// Determinism contract: every work item i is a pure function of i alone
// (workers carry only private scratch), results are stored at index i, and
// the error reported is the one from the lowest-indexed failing item among
// those executed. Nothing about scheduling order can therefore leak into
// results.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "one per
// available CPU" (GOMAXPROCS).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines
// (Workers-resolved). Work is split deterministically: worker w owns the
// stride {w, w+W, w+2W, …}. For returns the error of the lowest-indexed
// failing item, or ctx.Err() when the context is canceled before all items
// ran. Workers stop picking up new items promptly on cancellation or on any
// error; in-flight items run to completion.
func For(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForWorker is For with the owning worker's index passed to fn, so callers
// can maintain per-worker scratch (e.g. one circuit.Workspace per worker)
// without any locking. worker is in [0, W) where W is the resolved pool
// size; item i is always run by worker i % W, independent of timing.
func ForWorker(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		bail     atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				if bail.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(g, i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					bail.Store(true)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// collects the results in index order. On error the partial slice is
// returned alongside the (lowest-indexed) error; entries whose items did not
// run hold the zero value.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := For(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
