package experiments

import (
	"context"
	"fmt"

	"repro/internal/cellsched"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scene"
)

// Fig8Config names one bar group of Figure 8's backup-row sweep.
type Fig8Config struct {
	Label string
	// Aila selects the software baseline instead of the DRS.
	Aila bool
	DRS  core.Config
}

// Fig8Configs returns the configurations Figure 8 compares: one backup
// row without the extra register bank, 1/2/4/8 backup rows with it,
// the idealized DRS, and Aila's software method.
func Fig8Configs() []Fig8Config {
	mk := func(label string, rows int, extra, ideal bool) Fig8Config {
		c := core.DefaultConfig()
		c.BackupRows = rows
		c.ExtraBank = extra
		c.Ideal = ideal
		return Fig8Config{Label: label, DRS: c}
	}
	return []Fig8Config{
		mk("1-row (no extra bank)", 1, false, false),
		mk("1-row", 1, true, false),
		mk("2-row", 2, true, false),
		mk("4-row", 4, true, false),
		mk("8-row", 8, true, false),
		mk("ideal", 1, true, true),
		{Label: "aila", Aila: true},
	}
}

// Fig8Cell is one measurement of the sweep.
type Fig8Cell struct {
	Scene  scene.Benchmark
	Bounce int
	Config string
	Mrays  float64
	// StallRate is the rdctrl warp-issue stall rate (Figure 9 reports
	// this for the conference room and fairy forest benchmarks).
	StallRate float64
}

// fig8Result is one cell outcome; ok is false when the bounce stream
// was empty and the cell was skipped.
type fig8Result struct {
	ok   bool
	cell Fig8Cell
}

// Figure8 reproduces Figures 8 and 9: simulated ray tracing performance
// for the first `bounces` bounces of each scene under each backup-row
// configuration, including the idealized DRS and Aila's method. The
// paper evaluates bounces 1-4 with 2M rays each. Cells run on the
// scheduler (Options.Parallelism workers) and assemble positionally,
// so output is identical at any worker count.
func Figure8(p Params, bounces int, scenes []scene.Benchmark) ([]Fig8Cell, error) {
	return Figure8Ctx(context.Background(), p, bounces, scenes)
}

// Figure8Ctx is Figure8 with cancellation: scheduler workers stop
// claiming cells once ctx is done and in-flight device runs abort at
// their next epoch barrier. An uncancelled call is byte-identical to
// Figure8.
func Figure8Ctx(ctx context.Context, p Params, bounces int, scenes []scene.Benchmark) ([]Fig8Cell, error) {
	if bounces <= 0 {
		bounces = 4
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	p = p.ensureCache()

	grid := workloadCells[fig8Result](p, scenes)
	prefetch := len(grid)
	for _, b := range scenes {
		for _, cfg := range Fig8Configs() {
			pp := p
			arch := harness.ArchDRS
			if cfg.Aila {
				arch = harness.ArchAila
			} else {
				pp.Options.Policy = core.NewPolicy(cfg.DRS)
			}
			for bounce := 1; bounce <= bounces; bounce++ {
				grid = append(grid, cellsched.Cell[fig8Result]{
					Key: fmt.Sprintf("fig8/%s/%s/B%d", b, cfg.Label, bounce),
					Run: func() (fig8Result, error) {
						w, err := pp.workload(b)
						if err != nil {
							return fig8Result{}, err
						}
						if len(w.BounceRays(bounce, pp)) == 0 {
							return fig8Result{}, nil
						}
						res, err := w.simulateCtx(ctx, arch.String(), bounce, pp)
						if err != nil {
							return fig8Result{}, fmt.Errorf("fig8 %s %s B%d: %w", b, cfg.Label, bounce, err)
						}
						return fig8Result{ok: true, cell: Fig8Cell{
							Scene:     b,
							Bounce:    bounce,
							Config:    cfg.Label,
							Mrays:     res.Mrays,
							StallRate: res.GPU.Stats.CtrlStallRate(),
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
	var cells []Fig8Cell
	for _, r := range results[prefetch:] {
		if r.ok {
			cells = append(cells, r.cell)
		}
	}
	return cells, nil
}

// fig8Key indexes Fig8Cells for the renderers.
type fig8Key struct {
	scene  scene.Benchmark
	config string
	bounce int
}

func indexFig8Cells(cells []Fig8Cell) map[fig8Key]Fig8Cell {
	m := make(map[fig8Key]Fig8Cell, len(cells))
	for _, c := range cells {
		k := fig8Key{c.Scene, c.Config, c.Bounce}
		if _, ok := m[k]; !ok {
			m[k] = c
		}
	}
	return m
}

// RenderFigure8 prints the Mrays/s sweep, one table per scene with one
// row per configuration and one column per bounce.
func RenderFigure8(cells []Fig8Cell, bounces int) string {
	out := "Figure 8: simulated ray tracing performance (Mrays/s) by backup-row configuration\n"
	idx := indexFig8Cells(cells)
	for _, b := range scene.Benchmarks {
		var rows [][]string
		for _, cfg := range Fig8Configs() {
			row := []string{cfg.Label}
			found := false
			for bounce := 1; bounce <= bounces; bounce++ {
				v := ""
				if c, ok := idx[fig8Key{b, cfg.Label, bounce}]; ok {
					v = f1(c.Mrays)
					found = true
				}
				row = append(row, v)
			}
			if found {
				rows = append(rows, row)
			}
		}
		if len(rows) == 0 {
			continue
		}
		header := []string{b.String()}
		for bounce := 1; bounce <= bounces; bounce++ {
			header = append(header, fmt.Sprintf("B%d", bounce))
		}
		out += table(header, rows) + "\n"
	}
	return out
}

// RenderFigure9 prints the rdctrl warp-issue stall rates for the
// conference room and fairy forest benchmarks (Figure 9).
func RenderFigure9(cells []Fig8Cell, bounces int) string {
	out := "Figure 9: warp issue stall rate of the rdctrl instruction\n"
	idx := indexFig8Cells(cells)
	for _, b := range []scene.Benchmark{scene.ConferenceRoom, scene.FairyForest} {
		var rows [][]string
		for _, cfg := range Fig8Configs() {
			if cfg.Aila || cfg.DRS.Ideal {
				continue
			}
			row := []string{cfg.Label}
			found := false
			for bounce := 1; bounce <= bounces; bounce++ {
				v := ""
				if c, ok := idx[fig8Key{b, cfg.Label, bounce}]; ok {
					v = pct(c.StallRate)
					found = true
				}
				row = append(row, v)
			}
			if found {
				rows = append(rows, row)
			}
		}
		if len(rows) == 0 {
			continue
		}
		header := []string{b.String()}
		for bounce := 1; bounce <= bounces; bounce++ {
			header = append(header, fmt.Sprintf("B%d", bounce))
		}
		out += table(header, rows) + "\n"
	}
	return out
}
