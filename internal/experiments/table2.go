package experiments

import (
	"context"
	"fmt"

	"repro/internal/cellsched"
	"repro/internal/core"
	"repro/internal/scene"
)

// Table2Cell is one measurement of the swap-buffer sweep.
type Table2Cell struct {
	Scene   scene.Benchmark
	Bounce  int
	Buffers int
	Mrays   float64
	// MeanSwapCycles is the average clock cycles one batched ray swap
	// took (§4.3 reports 31.6/25.0/24.3/22.0 for 6/9/12/18 buffers).
	MeanSwapCycles float64
}

// Table2Buffers is the paper's swap-buffer sweep.
var Table2Buffers = []int{6, 9, 12, 18}

// table2Result is one cell outcome; ok is false when the bounce stream
// was empty and the cell was skipped.
type table2Result struct {
	ok   bool
	cell Table2Cell
}

// Table2 reproduces Table 2: ray tracing performance under 6, 9, 12
// and 18 swap buffers, for the first `bounces` bounces of each scene
// (the paper evaluates B1-B4). Cells run on the scheduler
// (Options.Parallelism workers) and assemble positionally, so output
// is identical at any worker count.
func Table2(p Params, bounces int, scenes []scene.Benchmark) ([]Table2Cell, error) {
	return Table2Ctx(context.Background(), p, bounces, scenes)
}

// Table2Ctx is Table2 with cancellation: scheduler workers stop
// claiming cells once ctx is done and in-flight device runs abort at
// their next epoch barrier. An uncancelled call is byte-identical to
// Table2.
func Table2Ctx(ctx context.Context, p Params, bounces int, scenes []scene.Benchmark) ([]Table2Cell, error) {
	if bounces <= 0 {
		bounces = 4
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	p = p.ensureCache()

	grid := workloadCells[table2Result](p, scenes)
	prefetch := len(grid)
	for _, b := range scenes {
		for _, bufs := range Table2Buffers {
			pp := p
			cfg := core.DefaultConfig()
			cfg.SwapBuffers = bufs
			pp.Options.Policy = core.NewPolicy(cfg)
			for bounce := 1; bounce <= bounces; bounce++ {
				grid = append(grid, cellsched.Cell[table2Result]{
					Key: fmt.Sprintf("table2/%s/#%d/B%d", b, bufs, bounce),
					Run: func() (table2Result, error) {
						w, err := pp.workload(b)
						if err != nil {
							return table2Result{}, err
						}
						if len(w.BounceRays(bounce, pp)) == 0 {
							return table2Result{}, nil
						}
						res, err := w.simulateCtx(ctx, "drs", bounce, pp)
						if err != nil {
							return table2Result{}, fmt.Errorf("table2 %s #%d B%d: %w", b, bufs, bounce, err)
						}
						return table2Result{ok: true, cell: Table2Cell{
							Scene:          b,
							Bounce:         bounce,
							Buffers:        bufs,
							Mrays:          res.Mrays,
							MeanSwapCycles: res.DRS.MeanSwapCycles(),
						}}, nil
					},
				})
			}
		}
	}
	results, err := cellsched.RunCtx(ctx, grid, p.par())
	if err != nil {
		return nil, err
	}
	var cells []Table2Cell
	for _, r := range results[prefetch:] {
		if r.ok {
			cells = append(cells, r.cell)
		}
	}
	return cells, nil
}

// table2Key indexes Table2Cells for the renderer.
type table2Key struct {
	scene   scene.Benchmark
	bounce  int
	buffers int
}

// RenderTable2 prints the swap-buffer sweep in the paper's layout:
// scenes and bounces as rows, buffer counts as columns.
func RenderTable2(cells []Table2Cell, bounces int) string {
	header := []string{"test", "bounce"}
	for _, bufs := range Table2Buffers {
		header = append(header, fmt.Sprintf("#%d", bufs))
	}
	idx := make(map[table2Key]Table2Cell, len(cells))
	for _, c := range cells {
		k := table2Key{c.Scene, c.Bounce, c.Buffers}
		if _, ok := idx[k]; !ok {
			idx[k] = c
		}
	}
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= bounces; bounce++ {
			row := []string{b.String(), fmt.Sprintf("B%d", bounce)}
			found := false
			for _, bufs := range Table2Buffers {
				v := ""
				if c, ok := idx[table2Key{b, bounce, bufs}]; ok {
					v = f1(c.Mrays)
					found = true
				}
				row = append(row, v)
			}
			if found {
				rows = append(rows, row)
			}
		}
	}
	out := "Table 2: ray tracing performance (Mrays/s) by swap buffer count\n" + table(header, rows)

	// Mean swap durations, aggregated per buffer count (§4.3 text).
	out += "\nMean cycles per ray swap:\n"
	for _, bufs := range Table2Buffers {
		var sum float64
		n := 0
		for _, c := range cells {
			if c.Buffers == bufs && c.MeanSwapCycles > 0 {
				sum += c.MeanSwapCycles
				n++
			}
		}
		if n > 0 {
			out += fmt.Sprintf("  #%d buffers: %.1f cycles\n", bufs, sum/float64(n))
		}
	}
	return out
}
