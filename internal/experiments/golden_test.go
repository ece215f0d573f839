package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/scene"
)

var update = flag.Bool("update", false, "rewrite testdata/cells_golden.json from the current runners")

const cellsGoldenPath = "testdata/cells_golden.json"

// goldenFigure is one figure's pinned output: its cells as the JSON
// drsbench -json and drsd's grid artifacts carry (full-precision
// floats), and its rendered tables, one entry per line.
type goldenFigure struct {
	Cells json.RawMessage `json:"cells"`
	Text  []string        `json:"text"`
}

// TestCellsGolden pins every figure's cells and rendered tables at
// tinyParams scale: two scenes, two bounces, each runner once. A
// runner change that moves any cell field, any cell's order or any
// rendered byte fails here and names the figure. Regenerate with
// go test ./internal/experiments -run TestCellsGolden -update.
func TestCellsGolden(t *testing.T) {
	p := tinyParams()
	p.Bounces = 2
	p.Options.Parallelism = 2
	p.Cache = NewWorkloadCache()
	ctx := context.Background()
	scenes := []scene.Benchmark{scene.ConferenceRoom, scene.FairyForest}

	got := map[string]goldenFigure{}
	add := func(name string, cells any, err error, text ...string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(cells)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = goldenFigure{Cells: js, Text: strings.Split(strings.Join(text, "\n"), "\n")}
	}
	fig2, err := Figure2Ctx(ctx, p)
	add("fig2", fig2, err, RenderFigure2(fig2))
	fig8, err := Figure8Ctx(ctx, p, 2, scenes)
	add("fig8", fig8, err, RenderFigure8(fig8, 2), RenderFigure9(fig8, 2))
	table2, err := Table2Ctx(ctx, p, 2, scenes)
	add("table2", table2, err, RenderTable2(table2, 2))
	fig10, err := Figure10Ctx(ctx, p, 1, scenes)
	add("fig10", fig10, err, RenderFigure10(fig10, 1), RenderFigure11(fig10, 1))
	pols, err := PoliciesFigureCtx(ctx, p, 1, scenes, nil)
	add("policies", pols, err, RenderPolicies(pols, 1))
	sweeps, err := SweepsFigureCtx(ctx, p, 2, scenes)
	add("sweeps", sweeps, err, RenderSweeps(sweeps))

	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(cellsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cellsGoldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", cellsGoldenPath, len(out))
		return
	}

	raw, err := os.ReadFile(cellsGoldenPath)
	if err != nil {
		t.Fatalf("read golden file: %v (regenerate with -update)", err)
	}
	if string(out) == string(raw) {
		return
	}
	// Name the diverging figures before failing on the byte mismatch.
	var want map[string]goldenFigure
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, _ := json.Marshal(got[name])
		w, _ := json.Marshal(want[name])
		if string(g) != string(w) {
			t.Errorf("%s: cells or rendered tables differ from %s", name, cellsGoldenPath)
		}
	}
	t.Fatalf("output differs from %s (regenerate with -update only for an intended change)", cellsGoldenPath)
}
