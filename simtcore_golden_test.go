// Differential pin of the simulator core against pre-SoA-refactor
// golden output: the reduced-scale Figure 10 and Table 2 tables must
// regenerate byte for byte at every scheduler parallelism, on the SoA
// engine exactly as on the per-warp-object engine that produced the
// goldens. Any diff is a semantic change to the simulated device — the
// epoch-barrier engine leaves no room for noise.
//
// Regenerate consciously with:
//
//	go test -run TestSimtCoreGolden -update-simtcore .
package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scene"
)

var updateSimtcore = flag.Bool("update-simtcore", false,
	"rewrite testdata/simtcore_golden_*.txt from the current simulator")

// simtcoreParams is the fixed reduced-scale workload the goldens pin.
// Small enough for tier-1 (a few seconds per run), large enough that
// all four architectures shuffle, compact and respawn for thousands of
// cycles per SMX.
func simtcoreParams(par int) experiments.Params {
	p := experiments.DefaultParams()
	p.Tris = 1500
	p.Width = 80
	p.Height = 60
	p.Bounces = 2
	p.Options.Parallelism = par
	return p
}

func simtcoreTables(t *testing.T, par int, cache *experiments.WorkloadCache) (fig10, table2 string) {
	t.Helper()
	p := simtcoreParams(par)
	p.Cache = cache
	cells10, err := experiments.Figure10Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom})
	if err != nil {
		t.Fatal(err)
	}
	cellsT2, err := experiments.Table2Ctx(context.Background(), p, 2, []scene.Benchmark{scene.FairyForest})
	if err != nil {
		t.Fatal(err)
	}
	return experiments.RenderFigure10(cells10, 2), experiments.RenderTable2(cellsT2, 2)
}

// TestSimtCoreCheckDeterminism runs the reduced-scale Figure 10 with
// the harness's run-twice assertion enabled at every scheduler
// parallelism: each device simulation executes twice and any snapshot
// divergence (stats, hits, cycles) fails inside the harness. This is
// the dynamic complement to the byte-compared goldens — it would catch
// a nondeterminism the fixed golden workload happens not to excite.
func TestSimtCoreCheckDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-scale device simulation; skipped with -short")
	}
	cache := experiments.NewWorkloadCache()
	for _, par := range []int{1, 2, 4} {
		p := simtcoreParams(par)
		p.Cache = cache
		p.Options.CheckDeterminism = true
		if _, err := experiments.Figure10Ctx(context.Background(), p, 2, []scene.Benchmark{scene.ConferenceRoom}); err != nil {
			t.Fatalf("par %d: determinism check failed: %v", par, err)
		}
	}
}

func TestSimtCoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-scale device simulation; skipped with -short")
	}
	goldens := map[string]string{}
	cache := experiments.NewWorkloadCache()
	for _, par := range []int{1, 2, 4} {
		fig10, table2 := simtcoreTables(t, par, cache)
		if prev, ok := goldens["fig10"]; ok && prev != fig10 {
			t.Fatalf("fig10 output differs between -par values (par=%d)", par)
		}
		if prev, ok := goldens["table2"]; ok && prev != table2 {
			t.Fatalf("table2 output differs between -par values (par=%d)", par)
		}
		goldens["fig10"], goldens["table2"] = fig10, table2
	}

	for name, got := range goldens {
		path := filepath.Join("testdata", "simtcore_golden_"+name+".txt")
		if *updateSimtcore {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", path, len(got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden: %v (regenerate with -update-simtcore)", err)
		}
		if got != string(want) {
			t.Errorf("%s diverged from pre-refactor golden %s;\ngot:\n%s\nwant:\n%s",
				name, path, got, want)
		}
	}
}
