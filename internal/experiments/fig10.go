package experiments

import (
	"context"
	"fmt"

	"repro/internal/cellsched"
	"repro/internal/harness"
	"repro/internal/scene"
	"repro/internal/simt"
)

// ArchCell is one architecture/scene/bounce measurement for the
// Figure 10/11 comparison (Aila vs DMK vs TBC vs DRS).
type ArchCell struct {
	Scene     scene.Benchmark
	Arch      harness.Arch
	Bounce    int // 0 = overall (all bounces merged)
	Rays      int
	Eff       float64
	Breakdown simt.Breakdown
	Mrays     float64
	// RFShuffleShare is the register file access share of ray
	// shuffling (§4.4, DRS only).
	RFShuffleShare float64
	// L1TexMissRate supports the sponza analysis of §4.4.
	L1TexMissRate float64
	// SpawnConflictShare is DMK's spawn-memory conflict cycles over
	// total cycles (§4.4 reports 7.95%-19.97%).
	SpawnConflictShare float64
}

// ComparisonArchs lists the four architectures of Figures 10 and 11.
var ComparisonArchs = []harness.Arch{
	harness.ArchAila, harness.ArchDMK, harness.ArchTBC, harness.ArchDRS,
}

// fig10Result is one (scene, arch, bounce) cell outcome plus the raw
// stats the overall row aggregates from.
type fig10Result struct {
	ok    bool // false: the bounce stream was empty, cell skipped
	cell  ArchCell
	stats simt.Stats
	rays  int
}

// Figure10 reproduces Figures 10 and 11: SIMD efficiency with
// utilization breakdown and ray tracing performance for Aila's method,
// DMK, TBC and the DRS, per bounce plus overall. The paper shows
// bounces 1-3 and the overall result over all 8 bounces.
//
// Every (scene, arch, bounce) simulation is an independent scheduler
// cell; the grid runs on Options.Parallelism workers and the rows are
// assembled positionally in the canonical scene/arch/bounce order, so
// the output is byte-identical at any worker count.
func Figure10(p Params, perBounce int, scenes []scene.Benchmark) ([]ArchCell, error) {
	return Figure10Ctx(context.Background(), p, perBounce, scenes)
}

// Figure10Ctx is Figure10 with cancellation: scheduler workers stop
// claiming cells once ctx is done and in-flight device runs abort at
// their next epoch barrier. An uncancelled call is byte-identical to
// Figure10.
func Figure10Ctx(ctx context.Context, p Params, perBounce int, scenes []scene.Benchmark) ([]ArchCell, error) {
	if perBounce <= 0 {
		perBounce = 3
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	bounces := p.Bounces
	if bounces <= 0 {
		bounces = 8
	}
	p = p.ensureCache()

	grid := workloadCells[fig10Result](p, scenes)
	prefetch := len(grid)
	for _, b := range scenes {
		for _, arch := range ComparisonArchs {
			for bounce := 1; bounce <= bounces; bounce++ {
				grid = append(grid, cellsched.Cell[fig10Result]{
					Key: fmt.Sprintf("fig10/%s/%s/B%d", b, arch, bounce),
					Run: func() (fig10Result, error) {
						w, err := p.workload(b)
						if err != nil {
							return fig10Result{}, err
						}
						if len(w.BounceRays(bounce, p)) == 0 {
							return fig10Result{}, nil
						}
						res, err := w.simulateCtx(ctx, arch.String(), bounce, p)
						if err != nil {
							return fig10Result{}, fmt.Errorf("fig10 %s %s B%d: %w", b, arch, bounce, err)
						}
						st := res.GPU.Stats
						return fig10Result{
							ok:    true,
							stats: st,
							rays:  res.Rays,
							cell: ArchCell{
								Scene: b, Arch: arch, Bounce: bounce,
								Rays: res.Rays, Eff: res.SIMDEff,
								Breakdown:          st.UtilizationBreakdown(p.Options.Simt.WarpSize),
								Mrays:              res.Mrays,
								RFShuffleShare:     res.GPU.RFShuffleShare,
								L1TexMissRate:      res.GPU.L1TexMissRate,
								SpawnConflictShare: spawnShare(st),
							},
						}, nil
					},
				})
			}
		}
	}
	results, err := cellsched.RunCtx(ctx, grid, p.par())
	if err != nil {
		return nil, err
	}
	results = results[prefetch:]

	var cells []ArchCell
	i := 0
	for _, b := range scenes {
		for _, arch := range ComparisonArchs {
			var overall simt.Stats
			var cycleSum int64
			overallRays := 0
			for bounce := 1; bounce <= bounces; bounce++ {
				r := results[i]
				i++
				if !r.ok {
					continue
				}
				overall.Add(r.stats)
				// The paper's overall performance is total rays over the
				// total cycles of all 8 bounces (each bounce is a
				// separate kernel launch).
				cycleSum += r.stats.Cycles
				overallRays += r.rays
				if bounce <= perBounce {
					cells = append(cells, r.cell)
				}
			}
			overall.Cycles = cycleSum
			cells = append(cells, ArchCell{
				Scene: b, Arch: arch, Bounce: 0,
				Rays: overallRays,
				Eff:  overall.SIMDEfficiency(p.Options.Simt.WarpSize),
				Breakdown: overall.UtilizationBreakdown(
					p.Options.Simt.WarpSize),
				Mrays: overall.MraysPerSec(int64(overallRays), p.Options.Simt.ClockMHz),
			})
		}
	}
	return cells, nil
}

func spawnShare(st simt.Stats) float64 {
	if st.Cycles == 0 {
		return 0
	}
	return float64(st.SpawnConflictCycles) / float64(st.Cycles)
}

// archKey indexes ArchCells for the renderers: one map build per
// render instead of a linear scan over the cell slice per row.
type archKey struct {
	scene  scene.Benchmark
	arch   harness.Arch
	bounce int
}

func indexArchCells(cells []ArchCell) map[archKey]ArchCell {
	m := make(map[archKey]ArchCell, len(cells))
	for _, c := range cells {
		k := archKey{c.Scene, c.Arch, c.Bounce}
		if _, ok := m[k]; !ok { // first match wins, like the old scans
			m[k] = c
		}
	}
	return m
}

// RenderFigure10 prints the SIMD efficiency / breakdown comparison.
func RenderFigure10(cells []ArchCell, perBounce int) string {
	out := "Figure 10: SIMD efficiency and utilization breakdown (Aila / DMK / TBC / DRS)\n"
	header := []string{"scene", "bounce", "arch", "SIMD eff", "W1:8", "W9:16", "W17:24", "W25:32", "SI"}
	idx := indexArchCells(cells)
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= perBounce+1; bounce++ {
			bn := bounce
			label := fmt.Sprintf("B%d", bounce)
			if bounce == perBounce+1 {
				bn = 0
				label = "all"
			}
			for _, arch := range ComparisonArchs {
				c, ok := idx[archKey{b, arch, bn}]
				if !ok {
					continue
				}
				rows = append(rows, []string{
					b.String(), label, arch.String(),
					pct(c.Eff),
					pct(c.Breakdown.W1to8), pct(c.Breakdown.W9to16),
					pct(c.Breakdown.W17to24), pct(c.Breakdown.W25to32),
					pct(c.Breakdown.SI),
				})
			}
		}
	}
	return out + table(header, rows)
}

// RenderFigure11 prints the performance and speedup comparison
// (speedups normalized to Aila's software method, as in Figure 11).
func RenderFigure11(cells []ArchCell, perBounce int) string {
	out := "Figure 11: ray tracing performance (Mrays/s) and speedup vs Aila\n"
	header := []string{"scene", "bounce", "aila", "dmk", "tbc", "drs", "dmk x", "tbc x", "drs x"}
	idx := indexArchCells(cells)
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= perBounce+1; bounce++ {
			bn := bounce
			label := fmt.Sprintf("B%d", bounce)
			if bounce == perBounce+1 {
				bn = 0
				label = "all"
			}
			aila, ok := idx[archKey{b, harness.ArchAila, bn}]
			if !ok {
				continue
			}
			dmk := idx[archKey{b, harness.ArchDMK, bn}]
			tbc := idx[archKey{b, harness.ArchTBC, bn}]
			drs := idx[archKey{b, harness.ArchDRS, bn}]
			speed := func(v float64) string {
				if aila.Mrays == 0 {
					return "-"
				}
				return fmt.Sprintf("%.2fx", v/aila.Mrays)
			}
			rows = append(rows, []string{
				b.String(), label,
				f1(aila.Mrays), f1(dmk.Mrays), f1(tbc.Mrays), f1(drs.Mrays),
				speed(dmk.Mrays), speed(tbc.Mrays), speed(drs.Mrays),
			})
		}
	}
	return out + table(header, rows)
}
