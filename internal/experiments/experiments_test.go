package experiments

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/tbc"
	"repro/internal/warpsched"
)

// tinyParams keeps experiment tests fast: small scenes, low-res traces,
// a scaled-down device.
func tinyParams() Params {
	p := DefaultParams()
	p.Tris = 3000
	p.Width = 64
	p.Height = 48
	p.Bounces = 3
	p.Options.Simt.NumSMX = 2
	p.Options.Simt.MaxWarpsPerSMX = 8
	drsCfg := core.DefaultConfig()
	drsCfg.WarpsOverride = 8
	tbcCfg := tbc.DefaultConfig()
	tbcCfg.WarpsPerBlock = 4
	p.Options.PolicyOverrides = []reorder.Policy{core.NewPolicy(drsCfg), tbc.NewPolicy(tbcCfg)}
	return p
}

func TestBuildWorkload(t *testing.T) {
	p := tinyParams()
	w, err := BuildWorkload(scene.ConferenceRoom, p)
	if err != nil {
		t.Fatal(err)
	}
	if w.Traces.TotalRays() == 0 {
		t.Fatalf("no rays captured")
	}
	if len(w.BounceRays(1, p)) != 64*48 {
		t.Errorf("bounce 1 rays = %d", len(w.BounceRays(1, p)))
	}
	p.MaxRaysPerBounce = 100
	if got := len(w.BounceRays(1, p)); got != 100 {
		t.Errorf("cap not applied: %d", got)
	}
}

func TestFigure2(t *testing.T) {
	p := tinyParams()
	rows, err := Figure2Ctx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("too few rows: %d", len(rows))
	}
	// Premise of Figure 2: primary bounces are more efficient than
	// later ones.
	if rows[0].Eff <= rows[len(rows)-1].Eff {
		t.Errorf("B1 eff %.3f not above B%d eff %.3f",
			rows[0].Eff, rows[len(rows)-1].Bounce, rows[len(rows)-1].Eff)
	}
	for _, r := range rows {
		sum := r.Breakdown.W1to8 + r.Breakdown.W9to16 + r.Breakdown.W17to24 + r.Breakdown.W25to32
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("B%d breakdown sums to %.3f", r.Bounce, sum)
		}
	}
	txt := RenderFigure2(rows)
	if !strings.Contains(txt, "Figure 2") || !strings.Contains(txt, "B1") {
		t.Errorf("render missing content:\n%s", txt)
	}
}

func TestTable1(t *testing.T) {
	lrr := DefaultParams()
	lrr.Options.Scheduler = warpsched.NewLRR()
	for _, tc := range []struct {
		p     Params
		sched string
	}{
		{DefaultParams(), "Greedy-Then-Oldest"},
		{lrr, "lrr"},
	} {
		txt := Table1(tc.p)
		for _, want := range []string{"980 MHz", "65536", "1536 KB"} {
			if !strings.Contains(txt, want) {
				t.Errorf("Table 1 missing %q:\n%s", want, txt)
			}
		}
		if !regexp.MustCompile(`Warp Scheduler +` + tc.sched + ` *\n`).MatchString(txt) {
			t.Errorf("Table 1 warp scheduler row is not %q:\n%s", tc.sched, txt)
		}
	}
}

func TestFigure8AndRenderers(t *testing.T) {
	p := tinyParams()
	cells, err := Figure8Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom})
	if err != nil {
		t.Fatal(err)
	}
	// 7 configs x 2 bounces.
	if len(cells) != 14 {
		t.Fatalf("cells = %d, want 14", len(cells))
	}
	for _, c := range cells {
		if c.Mrays <= 0 {
			t.Errorf("%s B%d %s: nonpositive Mrays", c.Scene, c.Bounce, c.Config)
		}
	}
	txt := RenderFigure8(cells, 2)
	if !strings.Contains(txt, "ideal") || !strings.Contains(txt, "aila") {
		t.Errorf("figure 8 render missing configs:\n%s", txt)
	}
	txt9 := RenderFigure9(cells, 2)
	if !strings.Contains(txt9, "stall rate") {
		t.Errorf("figure 9 render:\n%s", txt9)
	}
}

func TestTable2Runner(t *testing.T) {
	p := tinyParams()
	cells, err := Table2Ctx(context.Background(), p, 1, []scene.Benchmark{scene.FairyForest})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Table2Buffers) {
		t.Fatalf("cells = %d", len(cells))
	}
	txt := RenderTable2(cells, 1)
	if !strings.Contains(txt, "#18") {
		t.Errorf("table 2 render missing buffer column:\n%s", txt)
	}
}

func TestFigure10And11(t *testing.T) {
	p := tinyParams()
	p.Bounces = 2
	cells, err := Figure10Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom})
	if err != nil {
		t.Fatal(err)
	}
	// 4 archs x (2 bounces + overall).
	if len(cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(cells))
	}
	// DRS overall efficiency must beat Aila overall.
	var ailaEff, drsEff float64
	for _, c := range cells {
		if c.Bounce != 0 {
			continue
		}
		switch c.Arch {
		case harness.ArchAila:
			ailaEff = c.Eff
		case harness.ArchDRS:
			drsEff = c.Eff
		}
	}
	if drsEff <= ailaEff {
		t.Errorf("DRS overall eff %.3f not above Aila %.3f", drsEff, ailaEff)
	}
	t10 := RenderFigure10(cells, 2)
	if !strings.Contains(t10, "drs") || !strings.Contains(t10, "SI") {
		t.Errorf("figure 10 render:\n%s", t10)
	}
	t11 := RenderFigure11(cells, 2)
	if !strings.Contains(t11, "drs x") || !strings.Contains(t11, "all") {
		t.Errorf("figure 11 render:\n%s", t11)
	}
}

func TestOverheadNumbers(t *testing.T) {
	txt := Overhead(core.DefaultConfig())
	// The paper's arithmetic: 744 B swap buffers, 488 B state table,
	// ~1.4 KB total, 0.55% of the register file, 114.75 KB DMK spawn
	// memory, 2.5 KB TBC warp buffer, 0.11% die area.
	for _, want := range []string{"744 B", "488 B", "~1.4 KB", "0.55%", "114.75 KB", "2.5 KB", "0.11%"} {
		if !strings.Contains(txt, want) {
			t.Errorf("overhead missing %q:\n%s", want, txt)
		}
	}
}

// TestPoliciesFigure: the cross-policy grid covers every policy with a
// per-bounce row plus overall, the speedup denominator (noop) is
// present, and the output is byte-identical across scheduler worker
// counts — the same guarantee the paper figures carry.
func TestPoliciesFigure(t *testing.T) {
	p := tinyParams()
	p.Bounces = 2
	pols := []string{"noop", "ser", "drs"}
	cells, err := PoliciesFigureCtx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom}, pols)
	if err != nil {
		t.Fatal(err)
	}
	// 3 policies x (2 bounces + overall).
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(cells))
	}
	for _, c := range cells {
		if c.Mrays <= 0 {
			t.Errorf("%s B%d %s: nonpositive Mrays", c.Scene, c.Bounce, c.Policy)
		}
	}
	txt := RenderPolicies(cells, 2)
	for _, want := range []string{"noop", "ser", "drs", "x noop", "all", "1.00x"} {
		if !strings.Contains(txt, want) {
			t.Errorf("policies render missing %q:\n%s", want, txt)
		}
	}

	p2 := p
	p2.Options.Parallelism = 3
	p2.Cache = NewWorkloadCache()
	again, err := PoliciesFigureCtx(context.Background(), p2, 2, []scene.Benchmark{scene.ConferenceRoom}, pols)
	if err != nil {
		t.Fatal(err)
	}
	if RenderPolicies(again, 2) != txt {
		t.Fatalf("policies figure not byte-identical across worker counts")
	}
}

// A bounce count above trace.MaxBounces is an error from every runner
// that takes one, returned before any cell runs, not a panic inside a
// scheduler worker.
func TestRunnersRejectTooManyBounces(t *testing.T) {
	p := tinyParams()
	ctx := context.Background()
	scenes := []scene.Benchmark{scene.ConferenceRoom}
	runners := []struct {
		name string
		run  func() error
	}{
		{"Table2Ctx", func() error { _, err := Table2Ctx(ctx, p, 9, scenes); return err }},
		{"Figure8Ctx", func() error { _, err := Figure8Ctx(ctx, p, 9, scenes); return err }},
		{"SweepsFigureCtx", func() error { _, err := SweepsFigureCtx(ctx, p, 9, scenes); return err }},
	}
	for _, r := range runners {
		if err := r.run(); err == nil || !strings.Contains(err.Error(), "bounce count 9") {
			t.Errorf("%s with 9 bounces: err = %v, want a bounce-count error", r.name, err)
		}
	}
}

func TestPolicyCatalog(t *testing.T) {
	txt := PolicyCatalog()
	for _, name := range harness.Policies().Names() {
		if !strings.Contains(txt, name) {
			t.Errorf("catalog missing %q:\n%s", name, txt)
		}
	}
}
