package cellsched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// labelCells builds n deterministic cells whose results encode their
// index, for output comparison across schedulers.
func labelCells(n int) []Cell[string] {
	cells := make([]Cell[string], n)
	for i := range cells {
		cells[i] = Cell[string]{
			Key: fmt.Sprintf("cell%03d", i),
			Run: func() (string, error) {
				return fmt.Sprintf("v%d=%d", i, i*i), nil
			},
		}
	}
	return cells
}

// TestRunCtxUncancelledMatchesRun is the differential satellite: an
// uncancelled RunCtx must be byte-identical to Run at parallelism 1, 2
// and 4.
func TestRunCtxUncancelledMatchesRun(t *testing.T) {
	cells := labelCells(37)
	for _, par := range []int{1, 2, 4} {
		want, err := RunCtx(context.Background(), cells, par)
		if err != nil {
			t.Fatalf("RunCtx(par=%d): %v", par, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		got, err := RunCtx(ctx, cells, par)
		cancel()
		if err != nil {
			t.Fatalf("RunCtx(par=%d) under a live context: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par=%d: a cancellable, uncancelled run diverged:\n got %v\nwant %v", par, got, want)
		}
	}
}

func TestRunCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	cells := []Cell[int]{{
		Key: "never",
		Run: func() (int, error) { ran.Add(1); return 0, nil },
	}}
	for _, par := range []int{1, 4} {
		_, err := RunCtx(ctx, cells, par)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: want context.Canceled, got %v", par, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("cancelled scheduler still ran %d cells", n)
	}
}

// TestRunCtxStopsClaiming cancels mid-run and checks that workers stop
// claiming new cells. Every cell cancels the context, so a worker can
// run at most one cell before its next claim check sees the
// cancellation — the run count is bounded by the worker count, far
// below the grid size.
func TestRunCtxStopsClaiming(t *testing.T) {
	const n = 64
	for _, par := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		cells := make([]Cell[int], n)
		for i := range cells {
			cells[i] = Cell[int]{
				Key: fmt.Sprintf("c%d", i),
				Run: func() (int, error) {
					ran.Add(1)
					cancel()
					return i, nil
				},
			}
		}
		_, err := RunCtx(ctx, cells, par)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: want context.Canceled, got %v", par, err)
		}
		if got := ran.Load(); got > int64(par) {
			t.Fatalf("par=%d: %d cells ran after cancellation (want <= %d)", par, got, par)
		}
	}
}

// TestRunCtxCellErrorBeatsCancellation: when a cell fails and the
// context is also cancelled, the deterministic lowest-index cell error
// must win, matching Run's error rule.
func TestRunCtxCellErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cells := []Cell[int]{
			{Key: "a", Run: func() (int, error) { cancel(); return 0, boom }},
			{Key: "b", Run: func() (int, error) { return 1, nil }},
		}
		_, err := RunCtx(ctx, cells, par)
		cancel()
		if !errors.Is(err, boom) {
			t.Fatalf("par=%d: want cell error %v to win, got %v", par, boom, err)
		}
	}
}
