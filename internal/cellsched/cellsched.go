// Package cellsched is a deterministic parallel scheduler for
// experiment cells. The paper's evaluation is a grid of independent
// device simulations — (scene x architecture x bounce) for Figures
// 10/11, (scene x buffer config) for Table 2, backup-row sweeps for
// Figures 8/9 — and each cell is an isolated simulated device, so the
// cells can run concurrently without changing any cell's result.
//
// Determinism argument: a cell's Run closure is a pure function of the
// cell's inputs (the epoch-barrier engine makes each device simulation
// bit-reproducible regardless of goroutine scheduling, see DESIGN.md
// §3), cells share no mutable state (workloads come from a build-once
// Cache and are read-only after construction), and RunCtx assembles
// results positionally in the caller's canonical cell order. Worker
// count and completion order therefore cannot affect the output: the
// result slice — and everything rendered from it — is byte-identical
// at -par 1 and -par N. The experiment differential tests assert this
// mechanically.
//
// Error propagation is deterministic too: workers claim cells in index
// order, so when a cell fails, every lower-index cell has already been
// claimed; RunCtx stops issuing new cells, waits for the in-flight ones,
// and reports the failure with the lowest index — first-by-key in the
// canonical order, not first-by-time.
package cellsched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one independent unit of an experiment grid: a stable key in
// the grid's canonical order and a closure that computes the cell's
// value. Run must be safe to call concurrently with other cells' Run
// closures (it must not mutate state shared between cells).
type Cell[T any] struct {
	// Key names the cell in errors and logs ("fig10/conference/drs/B2").
	Key string
	// Run computes the cell. It is called at most once.
	Run func() (T, error)
}

// RunCtx executes the cells on a bounded worker pool and returns their
// values in cell order. par is the worker count: <= 0 means
// runtime.GOMAXPROCS(0). par == 1 degenerates to a plain sequential
// loop; any par produces byte-identical results (see the package
// comment).
//
// If any cell fails, RunCtx cancels the remaining unstarted cells,
// waits for in-flight ones, and returns the error of the failing cell
// with the lowest index, wrapped with its Key. Once ctx is done,
// workers likewise stop claiming new cells and wait for the in-flight
// ones (whose Run closures observe the same cancellation at their next
// internal check, provided the caller threaded ctx into them). The
// failing cell with the lowest index still wins; only if no claimed
// cell reported an error does RunCtx fall back to ctx.Err() (cells
// were skipped, so the grid is incomplete).
func RunCtx[T any](ctx context.Context, cells []Cell[T], par int) ([]T, error) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(cells) {
		par = len(cells)
	}
	out := make([]T, len(cells))
	if par <= 1 {
		// Sequential path: identical semantics, no goroutines. The first
		// error in index order is the same error the parallel path
		// reports (workers claim indices monotonically and drain).
		for i := range cells {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("cellsched: cancelled before cell %q: %w", cells[i].Key, err)
			}
			v, err := cells[i].Run()
			if err != nil {
				return nil, fmt.Errorf("cellsched: cell %q: %w", cells[i].Key, err)
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, len(cells))
	claimed := 0
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(cells) || failed.Load() {
					return
				}
				v, err := cells[i].Run()
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	claimed = int(next.Load())
	// Index order, not completion order: the lowest-index failure wins,
	// and every cell below it has completed (claims are monotonic).
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cellsched: cell %q: %w", cells[i].Key, err)
		}
	}
	if err := ctx.Err(); err != nil && claimed < len(cells) {
		return nil, fmt.Errorf("cellsched: cancelled with %d of %d cells unclaimed: %w",
			len(cells)-min(claimed, len(cells)), len(cells), err)
	}
	return out, nil
}
