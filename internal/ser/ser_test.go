package ser_test

import (
	"runtime"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/memsys"
	"repro/internal/render"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/ser"
	"repro/internal/simt"
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
	opt.Simt.MaxWarpsPerSMX = 8
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
	opt.PolicyOverrides = []reorder.Policy{ser.NewPolicy(cfg)}
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
	opt.PolicyOverrides = []reorder.Policy{ser.NewPolicy(cfg)}
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

// TestLiveWarpsStayExact runs SER on one SMX in short chunks. After
// each, the SMX's live-warp count must equal a recount of its warps:
// re-forming a diverged warp and resuming a free one from the window
// are phase changes that keep the count exact on their own.
func TestLiveWarpsStayExact(t *testing.T) {
	rays, data, _ := workload(t)
	pool := &kernels.Pool{Rays: rays}
	const warps = 8
	k := kernels.NewAila(data, pool, warps*32, kernels.AilaConfig{})
	w := ser.New(ser.DefaultConfig(), k, 32)
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 24
	smx, err := simt.NewSMX(0, cfg, k, w.Hooks(), memsys.NewOrderedL2(cfg.Mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	smx.LaunchAll(0)
	for smx.LiveWarps() > 0 {
		if err := smx.RunFor(50); err != nil {
			t.Fatal(err)
		}
		live := 0
		for i := 0; i < smx.NumWarps(); i++ {
			if !smx.Warp(i).Done() {
				live++
			}
		}
		if got := smx.LiveWarps(); got != live {
			t.Fatalf("cycle %d: LiveWarps %d, %d warps not done", smx.Cycle(), got, live)
		}
	}
	if pool.Remaining() != 0 || w.Stats().Reorders == 0 {
		t.Fatalf("%d rays left, %d reorders: the run did not exercise the window to completion", pool.Remaining(), w.Stats().Reorders)
	}
}

// sink keeps a constructor's result alive so its allocation is counted.
var sink *ser.Wrapper

// TestSERLoopZeroAlloc: once warm, 64-cycle chunks of window parks,
// sorts and re-formed warps allocate nothing, and the constructor
// allocates at most 32 B per slot plus 4 KiB at modern-big's per-SMX
// shape (64 warps of 32 lanes).
func TestSERLoopZeroAlloc(t *testing.T) {
	rays, data, _ := workload(t)
	pool := &kernels.Pool{Rays: rays}
	const warps = 8
	k := kernels.NewAila(data, pool, warps*32, kernels.AilaConfig{})
	w := ser.New(ser.DefaultConfig(), k, 32)
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 24
	smx, err := simt.NewSMX(0, cfg, k, w.Hooks(), memsys.NewOrderedL2(cfg.Mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	smx.LaunchAll(0)
	chunk := func() {
		if err := smx.RunFor(64); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		chunk()
	}
	before := w.Stats()
	if avg := testing.AllocsPerRun(20, chunk); avg != 0 {
		t.Errorf("SER hooks allocate: %.1f allocs per 64-cycle chunk (want 0)", avg)
	}
	after := w.Stats()
	if smx.LiveWarps() == 0 || after.Reorders == before.Reorders {
		t.Fatalf("the measurement did not run SER's regrouper: %+v -> %+v", before, after)
	}

	const bigWarps, width = 64, 32
	k = kernels.NewAila(data, pool, bigWarps*width, kernels.AilaConfig{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sink = ser.New(ser.DefaultConfig(), k, width)
	runtime.ReadMemStats(&m1)
	got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(32*bigWarps*width+4096)
	if got > budget {
		t.Errorf("New at %dx%d allocates %d B, budget %d B", bigWarps, width, got, budget)
	}
	t.Logf("New at %dx%d allocates %d B (budget %d B)", bigWarps, width, got, budget)
}
