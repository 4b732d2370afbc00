package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

func TestWorkersResolution(t *testing.T) {
	if got := parallel.Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := parallel.Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := parallel.Workers(-5); got < 1 {
		t.Fatalf("Workers(-5) = %d, want >= 1", got)
	}
}

func TestMapOrderedAtAnyWorkerCount(t *testing.T) {
	const n = 100
	for _, w := range []int{1, 2, 4, 16} {
		out, err := parallel.Map(context.Background(), n, w, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestForReportsSingleFailureAtAnyWorkerCount(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 2, 4, 16} {
		err := parallel.For(context.Background(), 50, w, func(i int) error {
			if i == 13 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want %v", w, err, boom)
		}
	}
}

func TestForPrefersLowerIndexedRecordedError(t *testing.T) {
	// When several errors are recorded, the lowest-indexed one wins. Forcing
	// every item to fail guarantees at least the stride heads race to record;
	// whatever subset lands, the reported index can only be one of them, and
	// re-running with one worker must deterministically yield item 0.
	err := parallel.For(context.Background(), 8, 1, func(i int) error {
		return fmt.Errorf("item %d", i)
	})
	if err == nil || err.Error() != "item 0" {
		t.Fatalf("serial: got %v, want item 0", err)
	}
	err = parallel.For(context.Background(), 8, 4, func(i int) error {
		if i >= 4 {
			t.Errorf("item %d ran after every stride head failed", i)
		}
		return fmt.Errorf("item %d", i)
	})
	if err == nil {
		t.Fatal("parallel: no error reported")
	}
}

func TestForSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := parallel.For(context.Background(), 10, 1, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 4 {
		t.Fatalf("ran %d items, want 4", ran)
	}
}

func TestCancellationStopsPromptly(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var executed int32
	start := time.Now()
	err := parallel.For(ctx, n, 4, func(i int) error {
		if atomic.AddInt32(&executed, 1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker may finish its in-flight item but must not start new ones:
	// far fewer than the full grid runs, far faster than the serial time.
	if got := atomic.LoadInt32(&executed); got > n/4 {
		t.Fatalf("%d items executed after cancellation, want prompt stop", got)
	}
	if elapsed > time.Duration(n/4)*time.Millisecond {
		t.Fatalf("took %v after cancellation, want prompt stop", elapsed)
	}
}

func TestCanceledBeforeStartRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	for _, w := range []int{1, 4} {
		err := parallel.For(ctx, 100, w, func(i int) error {
			atomic.AddInt32(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
	}
	// The parallel path may admit at most one item per worker before its
	// first ctx check; the serial path admits none.
	if ran > 8 {
		t.Fatalf("%d items ran on a pre-canceled context", ran)
	}
}

func TestMapWorkerStridedOwnership(t *testing.T) {
	const n, w = 40, 4
	owners, err := parallel.MapWorkerCtx(context.Background(), n, w, func(_ context.Context, worker, i int) (int, error) {
		return worker, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range owners {
		if got != i%w {
			t.Fatalf("item %d run by worker %d, want %d", i, got, i%w)
		}
	}
}

func TestSubSeedDistinctAndDeterministic(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := parallel.SubSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SubSeed collision: items %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
	if parallel.SubSeed(42, 7) != parallel.SubSeed(42, 7) {
		t.Fatal("SubSeed not deterministic")
	}
	if parallel.SubSeed(42, 7) == parallel.SubSeed(43, 7) {
		t.Fatal("SubSeed ignores the user seed")
	}
}
