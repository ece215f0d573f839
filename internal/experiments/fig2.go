package experiments

import (
	"context"
	"fmt"

	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/trace"
)

// Fig2Row is one bounce's SIMD efficiency and utilization breakdown of
// Aila's kernel (Figure 2 uses the conference room benchmark).
type Fig2Row struct {
	Bounce    int
	Rays      int
	Eff       float64
	Breakdown simt.Breakdown
	Mrays     float64
}

// Figure2Ctx reproduces Figure 2: per-bounce SIMD efficiency and Wm:n
// utilization breakdown of the baseline (Aila) kernel on the
// conference room benchmark, bounces 1..p.Bounces (0 selects all 8).
// Each bounce is a scheduler cell; rows assemble in bounce order and
// stop at the first empty bounce. Scheduler workers stop claiming
// cells once ctx is done and in-flight device runs abort at their next
// epoch barrier.
func Figure2Ctx(ctx context.Context, p Params) ([]Fig2Row, error) {
	n := p.Bounces
	if n <= 0 {
		n = trace.MaxBounces
	}
	runs, err := simulate(ctx, p, nil, []point{{key: "fig2", scene: scene.ConferenceRoom, policy: "aila", opt: p.Options}}, n)
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for i, r := range runs[0] {
		if !r.ok {
			break
		}
		rows = append(rows, Fig2Row{
			Bounce:    i + 1,
			Rays:      r.rays,
			Eff:       r.eff,
			Breakdown: r.stats.UtilizationBreakdown(p.Options.Simt.WarpSize),
			Mrays:     r.mrays,
		})
	}
	return rows, nil
}

// RenderFigure2 prints Figure 2's rows as a text table.
func RenderFigure2(rows []Fig2Row) string {
	header := []string{"bounce", "rays", "SIMD eff", "W1:8", "W9:16", "W17:24", "W25:32", "Mrays/s"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("B%d", r.Bounce),
			fmt.Sprintf("%d", r.Rays),
			pct(r.Eff),
			pct(r.Breakdown.W1to8),
			pct(r.Breakdown.W9to16),
			pct(r.Breakdown.W17to24),
			pct(r.Breakdown.W25to32),
			f1(r.Mrays),
		})
	}
	return "Figure 2: SIMD efficiency and utilization breakdown of Aila's kernel (conference room)\n" +
		table(header, out)
}

// Table1 renders the GPU microarchitectural parameters (Table 1).
func Table1(p Params) string {
	cfg := p.Options.Simt
	header := []string{"parameter", "value"}
	rows := [][]string{
		{"SMX Clock Frequency", fmt.Sprintf("%d MHz", cfg.ClockMHz)},
		{"SIMD lanes", fmt.Sprintf("%d", cfg.WarpSize)},
		{"SMXs/GPU", fmt.Sprintf("%d", cfg.NumSMX)},
		{"Warp Scheduler", "Greedy-Then-Oldest"},
		{"Warp Schedulers/SMX", fmt.Sprintf("%d", cfg.SchedulersPerSMX)},
		{"Inst. Dispatch Units/SMX", fmt.Sprintf("%d", cfg.SchedulersPerSMX*cfg.DispatchPerScheduler)},
		{"Registers/SMX", fmt.Sprintf("%d", cfg.RF.RegsPerSMX)},
		{"L1 Data Cache", fmt.Sprintf("%d KB", cfg.Mem.L1DataKB)},
		{"L1 Texture Cache", fmt.Sprintf("%d KB", cfg.Mem.L1TexKB)},
		{"L2 Cache", fmt.Sprintf("%d KB", cfg.Mem.L2KB)},
	}
	return "Table 1: GPU microarchitectural parameters\n" + table(header, rows)
}
