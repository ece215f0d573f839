package experiments

import (
	"context"
	"fmt"

	"repro/internal/cellsched"
	"repro/internal/scene"
	"repro/internal/simt"
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

// fig2Result is one bounce's cell outcome; ok is false when the bounce
// stream was empty.
type fig2Result struct {
	ok  bool
	row Fig2Row
}

// Figure2 reproduces Figure 2: per-bounce SIMD efficiency and Wm:n
// utilization breakdown of the baseline (Aila) kernel on the
// conference room benchmark, bounces 1..8. Each bounce is a scheduler
// cell; rows assemble in bounce order and stop at the first empty
// bounce, matching the sequential loop exactly.
func Figure2(p Params) ([]Fig2Row, error) {
	return Figure2Ctx(context.Background(), p)
}

// Figure2Ctx is Figure2 with cancellation: scheduler workers stop
// claiming cells once ctx is done and in-flight device runs abort at
// their next epoch barrier. An uncancelled call is byte-identical to
// Figure2.
func Figure2Ctx(ctx context.Context, p Params) ([]Fig2Row, error) {
	p = p.ensureCache()
	w, err := p.workload(scene.ConferenceRoom)
	if err != nil {
		return nil, err
	}
	bounces := p.Bounces
	if bounces <= 0 || bounces > len(w.Traces.Streams) {
		bounces = len(w.Traces.Streams)
	}
	grid := make([]cellsched.Cell[fig2Result], 0, bounces)
	for b := 1; b <= bounces; b++ {
		grid = append(grid, cellsched.Cell[fig2Result]{
			Key: fmt.Sprintf("fig2/B%d", b),
			Run: func() (fig2Result, error) {
				if len(w.BounceRays(b, p)) == 0 {
					return fig2Result{}, nil
				}
				res, err := w.simulateCtx(ctx, "aila", b, p)
				if err != nil {
					return fig2Result{}, err
				}
				st := res.GPU.Stats
				return fig2Result{ok: true, row: Fig2Row{
					Bounce:    b,
					Rays:      res.Rays,
					Eff:       res.SIMDEff,
					Breakdown: st.UtilizationBreakdown(p.Options.Simt.WarpSize),
					Mrays:     res.Mrays,
				}}, nil
			},
		})
	}
	results, err := cellsched.RunCtx(ctx, grid, p.par())
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for _, r := range results {
		if !r.ok {
			break
		}
		rows = append(rows, r.row)
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
