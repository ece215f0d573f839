package experiments

import (
	"context"
	"fmt"

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

// Figure10Ctx reproduces Figures 10 and 11: SIMD efficiency with
// utilization breakdown and ray tracing performance for Aila's method,
// DMK, TBC and the DRS, per bounce (the first perBounce, 0 selects 3)
// plus overall, over each scene (nil selects all four). The paper
// shows bounces 1-3 and the overall result over all 8 bounces
// (p.Bounces; 0 selects 8).
//
// Every (scene, arch, bounce) simulation is an independent scheduler
// cell; the grid runs on Options.Parallelism workers and the rows are
// assembled positionally in the canonical scene/arch/bounce order, so
// the output is byte-identical at any worker count. Scheduler workers
// stop claiming cells once ctx is done and in-flight device runs abort
// at their next epoch barrier.
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
	var points []point
	for _, b := range scenes {
		for _, arch := range ComparisonArchs {
			points = append(points, point{key: fmt.Sprintf("fig10/%s/%s", b, arch), scene: b, policy: arch.String(), opt: p.Options})
		}
	}
	runs, err := simulate(ctx, p, scenes, points, bounces)
	if err != nil {
		return nil, err
	}
	warp, clock := p.Options.Simt.WarpSize, p.Options.Simt.ClockMHz
	var cells []ArchCell
	for i, pt := range points {
		arch := ComparisonArchs[i%len(ComparisonArchs)] // architectures vary fastest
		for bi, r := range runs[i][:min(perBounce, bounces)] {
			if r.ok {
				cells = append(cells, ArchCell{
					Scene: pt.scene, Arch: arch, Bounce: bi + 1,
					Rays: r.rays, Eff: r.eff,
					Breakdown:          r.stats.UtilizationBreakdown(warp),
					Mrays:              r.mrays,
					RFShuffleShare:     r.rfShuffle,
					L1TexMissRate:      r.l1texMiss,
					SpawnConflictShare: spawnShare(r.stats),
				})
			}
		}
		overall, rays, _ := merge(runs[i])
		cells = append(cells, ArchCell{
			Scene: pt.scene, Arch: arch, Bounce: 0,
			Rays:      rays,
			Eff:       overall.SIMDEfficiency(warp),
			Breakdown: overall.UtilizationBreakdown(warp),
			Mrays:     overall.MraysPerSec(int64(rays), clock),
		})
	}
	return cells, nil
}

func spawnShare(st simt.Stats) float64 {
	if st.Cycles == 0 {
		return 0
	}
	return float64(st.SpawnConflictCycles) / float64(st.Cycles)
}

// archKey indexes ArchCells for the renderers.
type archKey struct {
	scene  scene.Benchmark
	arch   harness.Arch
	bounce int
}

func archKeyOf(c ArchCell) archKey { return archKey{c.Scene, c.Arch, c.Bounce} }

// RenderFigure10 prints the SIMD efficiency / breakdown comparison.
func RenderFigure10(cells []ArchCell, perBounce int) string {
	out := "Figure 10: SIMD efficiency and utilization breakdown (Aila / DMK / TBC / DRS)\n"
	header := []string{"scene", "bounce", "arch", "SIMD eff", "W1:8", "W9:16", "W17:24", "W25:32", "SI"}
	idx := index(cells, archKeyOf)
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
	idx := index(cells, archKeyOf)
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
