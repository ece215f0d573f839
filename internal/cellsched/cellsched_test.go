package cellsched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func squareCells(n int) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("cell%d", i),
			Run: func() (int, error) { return i * i, nil },
		}
	}
	return cells
}

// Results must be positional and identical for every worker count.
func TestRunOrderIndependentOfWorkers(t *testing.T) {
	const n = 100
	want, err := RunCtx(context.Background(), squareCells(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 3, 4, 16, 200} {
		got, err := RunCtx(context.Background(), squareCells(n), par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, got[i], want[i])
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	out, err := RunCtx(context.Background(), []Cell[int]{}, 4)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid: out=%v err=%v", out, err)
	}
}

// Each cell must run exactly once regardless of worker count.
func TestRunEachCellOnce(t *testing.T) {
	const n = 64
	var counts [n]atomic.Int64
	cells := make([]Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{Key: fmt.Sprintf("c%d", i), Run: func() (int, error) {
			counts[i].Add(1)
			return i, nil
		}}
	}
	if _, err := RunCtx(context.Background(), cells, 8); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Errorf("cell %d ran %d times", i, got)
		}
	}
}

// The reported error must be the failing cell with the lowest index
// (first-by-key), not whichever failed first in time — even when a
// later cell fails instantly and an earlier one fails slowly.
func TestRunErrorFirstByKeyNotFirstByTime(t *testing.T) {
	errEarly := errors.New("early failure")
	errLate := errors.New("late failure")
	// Gate cell 2 (the earlier failing index) so it cannot finish until
	// cell 7 (the later index) has already failed.
	lateFailed := make(chan struct{})
	cells := make([]Cell[int], 10)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{Key: fmt.Sprintf("c%d", i), Run: func() (int, error) {
			switch i {
			case 2:
				<-lateFailed
				return 0, errEarly
			case 7:
				close(lateFailed)
				return 0, errLate
			default:
				return i, nil
			}
		}}
	}
	for run := 0; run < 20; run++ {
		lateFailed = make(chan struct{})
		_, err := RunCtx(context.Background(), cells, 4)
		if err == nil {
			t.Fatal("no error reported")
		}
		if !errors.Is(err, errEarly) {
			t.Fatalf("run %d: got %v, want the lowest-index failure %v", run, err, errEarly)
		}
		if got := err.Error(); got != `cellsched: cell "c2": early failure` {
			t.Fatalf("error text %q", got)
		}
	}
}

// Sequential path reports the same first-by-index error.
func TestRunErrorSequentialMatchesParallel(t *testing.T) {
	boom := errors.New("boom")
	cells := make([]Cell[int], 5)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{Key: fmt.Sprintf("c%d", i), Run: func() (int, error) {
			if i >= 3 {
				return 0, boom
			}
			return i, nil
		}}
	}
	seqErr := func() string {
		_, err := RunCtx(context.Background(), cells, 1)
		return err.Error()
	}()
	_, parErr := RunCtx(context.Background(), cells, 4)
	if parErr == nil || parErr.Error() != seqErr {
		t.Fatalf("parallel error %v, sequential %q", parErr, seqErr)
	}
}

// A failure must stop unstarted cells from running. The non-failing
// cells pause briefly so the failing store is visible long before the
// surviving worker could claim the whole grid.
func TestRunCancelsAfterFailure(t *testing.T) {
	var started atomic.Int64
	cells := make([]Cell[int], 1000)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{Key: fmt.Sprintf("c%d", i), Run: func() (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, errors.New("fail fast")
			}
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	if _, err := RunCtx(context.Background(), cells, 2); err == nil {
		t.Fatal("no error")
	}
	if n := started.Load(); n >= 100 {
		t.Errorf("%d cells ran despite an early failure", n)
	}
}

func TestCacheBuildOnceUnderContention(t *testing.T) {
	c := NewCache[string, int]()
	var builds atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%5)
				v, err := c.Get(key, func() (int, error) {
					builds.Add(1)
					return 42, nil
				})
				if err != nil || v != 42 {
					t.Errorf("get %s: v=%d err=%v", key, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 5 {
		t.Errorf("builds = %d, want 5 (one per distinct key)", got)
	}
	st := c.Stats()
	if st.Builds != 5 || st.Misses != 5 {
		t.Errorf("stats builds/misses = %d/%d, want 5/5", st.Builds, st.Misses)
	}
	if st.Hits != 16*100-5 {
		t.Errorf("hits = %d, want %d", st.Hits, 16*100-5)
	}
	if len(c.entries) != 5 {
		t.Errorf("len = %d, want 5", len(c.entries))
	}
}

// Build errors are cached: every requester sees the same error and the
// build still runs only once.
func TestCacheErrorCached(t *testing.T) {
	c := NewCache[int, int]()
	boom := errors.New("build exploded")
	var builds atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := c.Get(7, func() (int, error) {
			builds.Add(1)
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("get %d: err=%v", i, err)
		}
	}
	if builds.Load() != 1 {
		t.Errorf("failed build ran %d times, want 1", builds.Load())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}
