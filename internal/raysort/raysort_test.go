package raysort_test

import (
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/raysort"
	"repro/internal/render"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/vec"
)

// TestSortStreamPermutation: the result must be a permutation, must be
// deterministic, and must preserve stream order among identical rays
// (stable tie-break).
func TestSortStreamPermutation(t *testing.T) {
	p := raysort.NewPolicy(raysort.DefaultConfig())
	rays := make([]geom.Ray, 257)
	for i := range rays {
		// A scrambled but deterministic cloud of origins and directions.
		f := float32(i*2654435761%1000) / 1000
		g := float32(i*40503%997) / 997
		rays[i] = geom.Ray{
			Origin: vec.New(f*10-5, g*4, float32(i%7)),
			Dir:    vec.New(g*2-1, f*2-1, 0.5).Norm(),
			TMax:   1e30,
		}
	}
	perm, cost := p.SortStream(rays)
	if len(perm) != len(rays) {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, len(rays))
	for _, oi := range perm {
		if oi < 0 || oi >= len(rays) || seen[oi] {
			t.Fatalf("not a permutation: index %d", oi)
		}
		seen[oi] = true
	}
	if cost <= 0 {
		t.Fatalf("cost = %d, want positive", cost)
	}
	perm2, cost2 := p.SortStream(rays)
	for i := range perm {
		if perm[i] != perm2[i] {
			t.Fatalf("permutation not deterministic at %d", i)
		}
	}
	if cost != cost2 {
		t.Fatalf("cost not deterministic: %d vs %d", cost, cost2)
	}

	same := make([]geom.Ray, 64)
	for i := range same {
		same[i] = rays[0]
	}
	idPerm, _ := p.SortStream(same)
	for i, oi := range idPerm {
		if oi != i {
			t.Fatalf("identical rays reordered: perm[%d] = %d (tie-break must keep stream order)", i, oi)
		}
	}
}

func TestSortStreamEmptyAndValidate(t *testing.T) {
	p := raysort.NewPolicy(raysort.DefaultConfig())
	perm, cost := p.SortStream(nil)
	if len(perm) != 0 || cost != 0 {
		t.Fatalf("empty stream: perm=%v cost=%d", perm, cost)
	}
	if err := raysort.NewPolicy(raysort.Config{OriginBits: -1}).Validate(); err == nil {
		t.Fatal("negative OriginBits accepted")
	}
	if err := raysort.NewPolicy(raysort.Config{OriginBits: 20, DirBits: 20}).Validate(); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := raysort.NewPolicy(raysort.Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	var _ reorder.Policy = p
	var _ reorder.StreamSorter = p
}

// TestSortPolicyEndToEnd: tracing the sorted stream must return hits in
// the original input order, identical to the CPU reference, and charge
// the modeled sort cost against throughput.
func TestSortPolicyEndToEnd(t *testing.T) {
	s := scene.Generate(scene.ConferenceRoom, 1200)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cam := render.CameraFor(scene.ConferenceRoom, 48, 36)
	res, err := render.Render(s, bv, cam, render.Config{
		Width: 48, Height: 36, SamplesPerPixel: 1, MaxDepth: 4, CaptureTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rays := res.Traces.Bounce(2).Rays
	if len(rays) < 300 {
		t.Fatalf("workload too small: %d rays", len(rays))
	}
	data := kernels.NewSceneData(bv)
	opt := harness.DefaultOptions()
	opt.Simt.NumSMX = 2
	opt.Simt.MaxCycles = 1 << 24
	opt.Simt.MaxWarpsPerSMX = 8
	opt.CheckDeterminism = true
	run, err := harness.RunNamed("sort", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		got := run.Hits[i]
		if got.TriIndex != want.TriIndex {
			if got.TriIndex >= 0 && want.TriIndex >= 0 && abs(got.T-want.T) < 1e-4 {
				continue
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d hits out of place after inverse mapping", bad, len(rays))
	}
	if run.Reorder.CostCycles <= 0 {
		t.Errorf("no sort cost charged: %+v", run.Reorder)
	}
	if run.Reorder.RaysMoved != int64(len(rays)) {
		t.Errorf("RaysMoved = %d, want %d", run.Reorder.RaysMoved, len(rays))
	}
	// The charged cost must depress Mrays relative to the raw device rate.
	raw := run.GPU.Stats.MraysPerSec(int64(len(rays)), run.Config.ClockMHz)
	if run.Mrays >= raw {
		t.Errorf("Mrays %.2f not below raw %.2f despite %d cost cycles",
			run.Mrays, raw, run.Reorder.CostCycles)
	}
}

func abs(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}
