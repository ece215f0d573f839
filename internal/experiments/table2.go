package experiments

import (
	"context"
	"fmt"

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

// Table2Ctx reproduces Table 2: ray tracing performance under 6, 9, 12
// and 18 swap buffers, for the first `bounces` bounces (0 selects 4)
// of each scene (nil selects all four); the paper evaluates B1-B4.
// Cells run on the scheduler (Options.Parallelism workers) and
// assemble positionally, so output is identical at any worker count;
// scheduler workers stop claiming cells once ctx is done and in-flight
// device runs abort at their next epoch barrier.
func Table2Ctx(ctx context.Context, p Params, bounces int, scenes []scene.Benchmark) ([]Table2Cell, error) {
	if bounces <= 0 {
		bounces = 4
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	var points []point
	for _, b := range scenes {
		for _, bufs := range Table2Buffers {
			cfg := core.DefaultConfig()
			cfg.SwapBuffers = bufs
			opt := p.Options
			opt.Policy = core.NewPolicy(cfg)
			points = append(points, point{key: fmt.Sprintf("table2/%s/#%d", b, bufs), scene: b, policy: "drs", opt: opt})
		}
	}
	runs, err := simulate(ctx, p, scenes, points, bounces)
	if err != nil {
		return nil, err
	}
	var cells []Table2Cell
	for i, pt := range points {
		for bi, r := range runs[i] {
			if r.ok {
				cells = append(cells, Table2Cell{
					Scene:          pt.scene,
					Bounce:         bi + 1,
					Buffers:        Table2Buffers[i%len(Table2Buffers)], // buffer counts vary fastest
					Mrays:          r.mrays,
					MeanSwapCycles: r.swapCycles,
				})
			}
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
	idx := index(cells, func(c Table2Cell) table2Key { return table2Key{c.Scene, c.Bounce, c.Buffers} })
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
