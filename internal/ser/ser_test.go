package ser_test

import (
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/ser"
	"repro/internal/statcheck"
)

// workload builds a small incoherent secondary-ray stream.
func workload(t *testing.T) ([]geom.Ray, *kernels.SceneData, *bvh.BVH) {
	t.Helper()
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
	return rays, kernels.NewSceneData(bv), bv
}

func smallOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Simt.NumSMX = 2
	opt.Simt.MaxCycles = 1 << 24
	opt.AilaWarps = 8
	return opt
}

// TestSERMatchesReference: reorder-at-hit must not change any hit, and
// the run must be bit-deterministic (the harness replays the whole
// simulation and byte-compares).
func TestSERMatchesReference(t *testing.T) {
	rays, data, bv := workload(t)
	opt := smallOptions()
	opt.CheckDeterminism = true
	res, err := harness.RunNamed("ser", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		got := res.Hits[i]
		if got.TriIndex != want.TriIndex {
			if got.TriIndex >= 0 && want.TriIndex >= 0 && abs(got.T-want.T) < 1e-4 {
				continue
			}
			bad++
			if bad <= 3 {
				t.Errorf("ray %d: got tri %d (t=%v), want tri %d (t=%v)",
					i, got.TriIndex, got.T, want.TriIndex, want.T)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d wrong hits", bad, len(rays))
	}
	if res.Policy != "ser" {
		t.Errorf("Result.Policy = %q", res.Policy)
	}
}

// TestSERReordersIncoherentRays: on bounce-2 rays the window must see
// real traffic and re-form warps, and the bounded window must hold.
func TestSERReordersIncoherentRays(t *testing.T) {
	rays, data, _ := workload(t)
	cfg := ser.DefaultConfig()
	opt := smallOptions()
	opt.Policy = ser.NewPolicy(cfg)
	res, err := harness.RunNamed("ser", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := res.SERStats
	if st.Reorders == 0 || st.ThreadsMoved == 0 {
		t.Fatalf("SER did not reorder: %+v", st)
	}
	if st.WindowHighWater > int64(cfg.WindowSize) {
		t.Fatalf("window high water %d exceeds bound %d", st.WindowHighWater, cfg.WindowSize)
	}
	if res.Reorder.Reorders != st.Reorders || res.Reorder.RaysMoved != st.ThreadsMoved {
		t.Errorf("generic stats %+v disagree with typed stats %+v", res.Reorder, st)
	}
	// The injected handoff instructions must show up as SI work.
	if bd := res.GPU.Stats.UtilizationBreakdown(32); bd.SI <= 0 {
		t.Errorf("SER charged no SI instructions")
	}
}

// TestSERTinyWindowSerializes: a window too small to park anything must
// fall back to IPDOM serialization and still trace correctly.
func TestSERTinyWindowSerializes(t *testing.T) {
	rays, data, bv := workload(t)
	rays = rays[:200]
	cfg := ser.DefaultConfig()
	cfg.WindowSize = 1 // below any MinDivergence split
	opt := smallOptions()
	opt.Policy = ser.NewPolicy(cfg)
	res, err := harness.RunNamed("ser", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := res.SERStats
	if st.ThreadsMoved != 0 {
		t.Fatalf("1-thread window parked %d threads", st.ThreadsMoved)
	}
	if st.Serialized == 0 {
		t.Errorf("no serialized divergences recorded")
	}
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		if res.Hits[i].TriIndex != want.TriIndex && abs(res.Hits[i].T-want.T) >= 1e-4 {
			t.Fatalf("ray %d wrong with serializing window", i)
		}
	}
}

func TestSERPolicyValidate(t *testing.T) {
	p := ser.NewPolicy(ser.Config{WindowSize: -1})
	if p.Validate() == nil {
		t.Fatal("negative WindowSize accepted")
	}
	if err := ser.NewPolicy(ser.Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	var _ reorder.Policy = p
}

func TestSERStatsAddCovers(t *testing.T) {
	if err := statcheck.AddCovers(ser.Stats{}); err != nil {
		t.Fatal(err)
	}
}

func abs(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}
