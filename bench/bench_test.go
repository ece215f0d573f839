package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload in a fraction of a second per op. It has
// no pinned outputs; the per-op checks (determinism, cross-policy hits,
// traced against untraced, byte-equal drsd bodies) still apply.
func tinyScale(t *testing.T) config {
	return config{
		nproc: runtime.NumCPU(), seed: 1, work: t.TempDir(),
		tris: 500, width: 32, height: 24, bounces: 2, bigBounce: 2,
		buildTris: 500, buildWidth: 32, buildHeight: 24,
		mixTris: []int{300, 600}, mixWidth: 48, mixHeight: 36, mixRays: 64,
	}
}

// lastJSON decodes the last line of a run's output.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestWorkloadsSmoke runs every workload for one timed op, untraced and
// traced, and checks that each declared metric is printed with its unit
// and that nothing failed.
func TestWorkloadsSmoke(t *testing.T) {
	cfg := tinyScale(t)
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, cfg, 0, traced, cfg.work+"/trace-"+w.name+".json")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, w, cfg, traced, r); err != nil {
				t.Fatal(err)
			}
			res := lastJSON(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics in the result, %d declared", w.name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: %s unit %q, declared %q", w.name, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v; it must never be 0", w.name, d.name, m.Value)
				}
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("%s traced=%v: %s not in the printed table", w.name, traced, d.name)
				}
			}
			if !traced && find(r.metrics, "failed_frac").Value != 0 {
				t.Errorf("%s: failed_frac %v", w.name, find(r.metrics, "failed_frac").Value)
			}
		}
	}
	t.Logf("all workloads, untraced and traced, in %v", time.Since(start))
}

// TestContract checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark prints.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var c struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, c.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metricDecl, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, declared %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{id: 1, name: "grid", start: ms(0), end: ms(100)},
		// Two cells on parallel workers overlap on [30, 40]; a third
		// runs past its parent's end and is clipped to it.
		{id: 2, parent: 1, name: "cell", start: ms(10), end: ms(40)},
		{id: 3, parent: 1, name: "cell", start: ms(30), end: ms(60)},
		{id: 4, parent: 1, name: "cell", start: ms(80), end: ms(120)},
	}
	got := make(map[string]selfTime)
	for _, s := range selfTimes(spans) {
		got[s.name] = s
	}
	if g := got["grid"]; g.self != ms(30) || g.total != ms(100) {
		t.Errorf("grid: self %v total %v, want 30ms of 100ms (children cover [10,60] and [80,100])", g.self, g.total)
	}
	if c := got["cell"]; c.count != 3 || c.self != ms(100) {
		t.Errorf("cell: %d spans with self %v, want 3 with 100ms", c.count, c.self)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, tc.q); ok != tc.ok {
			t.Errorf("p%v of %d samples: reportable %v, want %v", tc.q*100, tc.n, ok, tc.ok)
		}
	}
	if got := timing("x", "ms", []float64{3, 1, 2}); got.Value != 2 || got.N != 3 {
		t.Errorf("median of 3 samples: %+v", got)
	}
	if got := tail("x", "ms", []float64{1, 2, 3}, 0.9); got.Value != 0 || got.N != 3 {
		t.Errorf("p90 of 3 samples is reported as %+v", got)
	}
}
