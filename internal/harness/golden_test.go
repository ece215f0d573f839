package harness

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scene"
	"repro/internal/warpsched"
)

// update regenerates the golden-stats file instead of comparing:
//
//	go test ./internal/harness -run TestGoldenStats -update
//
// Review the diff before committing — every changed counter is a
// behaviour change in the simulated device, not noise, because the
// epoch-barrier engine is bit-deterministic.
var update = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current simulator")

const goldenPath = "testdata/golden_stats.json"

// goldenRun is one entry of the golden file: a policy run under a warp
// scheduler, nil for the device default (gto).
type goldenRun struct {
	key, policy string
	sched       warpsched.Scheduler
}

// goldenWaSP has one runner per scheduler: smallOptions runs 2 warps
// per scheduler, so the default 2 runners would make every warp a
// runner. With one, all three of WaSP's tiers issue at this scale.
var goldenWaSP = warpsched.WaSP{Runners: 1, Distance: 16}

// goldenRuns defines the fixed matrix the golden file pins: every
// architecture under the default scheduler, which between them covers
// both traversal kernels (aila/dmk/tbc run the while-while kernel, drs
// runs Kernel 1's while-if kernel), plus aila and drs under the two
// registry schedulers that bind a scheduler order.
var goldenRuns = []goldenRun{
	{"aila", "aila", nil},
	{"drs", "drs", nil},
	{"dmk", "dmk", nil},
	{"tbc", "tbc", nil},
	{"aila/lrr", "aila", warpsched.NewLRR()},
	{"drs/lrr", "drs", warpsched.NewLRR()},
	{"aila/wasp", "aila", goldenWaSP},
	{"drs/wasp", "drs", goldenWaSP},
}

// TestGoldenStats pins the full metrics registry dump for a tiny
// deterministic workload on all four architectures, and on two of them
// under LRR and WaSP. The comparison is
// byte-exact: the epoch engine guarantees every counter is reproducible,
// so any diff means the device model changed and the golden file must be
// consciously regenerated with -update.
func TestGoldenStats(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays
	if len(rays) < 200 {
		t.Fatalf("workload too small: %d rays", len(rays))
	}
	if len(rays) > 500 {
		rays = rays[:500]
	}
	got := make(map[string]json.RawMessage, len(goldenRuns))
	for _, r := range goldenRuns {
		opt := smallOptions()
		opt.Observe = true
		opt.Scheduler = r.sched
		res, err := RunNamed(r.policy, rays, data, opt)
		if err != nil {
			t.Fatalf("%s: %v", r.key, err)
		}
		if res.Metrics == nil || len(res.Metrics.Paths) == 0 {
			t.Fatalf("%s: empty metrics snapshot", r.key)
		}
		b, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatalf("%s: %v", r.key, err)
		}
		got[r.key] = b
	}
	// encoding/json sorts map keys and the Snapshot marshaler emits
	// sorted paths, so this serialization is canonical.
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(out))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file: %v (regenerate with -update)", err)
	}
	if string(out) == string(want) {
		return
	}
	// Name the first diverging counter per arch before failing on the
	// byte mismatch — far more useful than a giant byte diff.
	var wantRuns map[string]json.RawMessage
	if err := json.Unmarshal(want, &wantRuns); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	for _, r := range goldenRuns {
		name := r.key
		var g, w map[string]int64
		if err := json.Unmarshal(got[name], &g); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wantRuns[name], &w); err != nil {
			t.Fatalf("%s: golden entry corrupt: %v", name, err)
		}
		for path, wv := range w {
			if gv, ok := g[path]; !ok {
				t.Errorf("%s: counter %s missing from current run (golden has %d)", name, path, wv)
			} else if gv != wv {
				t.Errorf("%s: %s = %d, golden %d", name, path, gv, wv)
			}
		}
		for path, gv := range g {
			if _, ok := w[path]; !ok {
				t.Errorf("%s: new counter %s = %d not in golden file", name, path, gv)
			}
		}
	}
	t.Fatalf("metrics diverged from %s; if the change is intentional, regenerate with: go test ./internal/harness -run TestGoldenStats -update", goldenPath)
}
