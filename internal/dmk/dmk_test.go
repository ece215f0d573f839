package dmk

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/memsys"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/statcheck"
	"repro/internal/vec"
)

func buildDMK(t testing.TB, nrays, warps int) (*simt.SMX, *Wrapper, *kernels.Aila, *kernels.Pool, *bvh.BVH) {
	t.Helper()
	s := scene.Generate(scene.ConferenceRoom, 1200)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := kernels.NewSceneData(bv)
	rnd := rand.New(rand.NewSource(3))
	rays := make([]geom.Ray, nrays)
	for i := range rays {
		o := vec.New(float32(rnd.Float64())*18+1, float32(rnd.Float64())*5+0.3, float32(rnd.Float64())*10+1)
		d := vec.New(float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1)).Norm()
		rays[i] = geom.NewRay(o, d)
	}
	pool := &kernels.Pool{Rays: rays}
	k := kernels.NewAila(data, pool, warps*32, kernels.AilaConfig{})
	w := New(DefaultConfig(), k, warps, 32)
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 24
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	smx, err := simt.NewSMX(0, cfg, k, w.Hooks(), l2)
	if err != nil {
		t.Fatal(err)
	}
	smx.LaunchAll(0)
	return smx, w, k, pool, bv
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SpawnBanks != 32 {
		t.Errorf("spawn banks = %d", cfg.SpawnBanks)
	}
	if cfg.RegsPerThread != kernels.RayRegisters {
		t.Errorf("regs per thread = %d", cfg.RegsPerThread)
	}
}

func TestDMKTracesCorrectly(t *testing.T) {
	smx, w, k, pool, bv := buildDMK(t, 1500, 8)
	st, err := smx.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained")
	}
	if w.queued != 0 {
		t.Errorf("threads stranded in spawn memory: %d", w.queued)
	}
	bad := 0
	for i, r := range pool.Rays {
		want := bv.Intersect(r, nil)
		got := k.Hits[i]
		if got.TriIndex != want.TriIndex {
			if got.TriIndex >= 0 && want.TriIndex >= 0 {
				d := got.T - want.T
				if d < 1e-4 && d > -1e-4 {
					continue
				}
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d wrong hits", bad, len(pool.Rays))
	}
	if w.Stats().Respawns == 0 {
		t.Errorf("no respawns on incoherent rays")
	}
	if st.SIInstrs == 0 {
		t.Errorf("no SI instructions recorded")
	}
	if st.SpawnConflictCycles == 0 {
		t.Errorf("no spawn contention recorded")
	}
}

func TestDMKImprovesEfficiencyOverBaseline(t *testing.T) {
	// Run the same incoherent workload with and without DMK.
	smxD, _, _, _, _ := buildDMK(t, 2000, 8)
	stD, err := smxD.Run()
	if err != nil {
		t.Fatal(err)
	}

	s := scene.Generate(scene.ConferenceRoom, 1200)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := kernels.NewSceneData(bv)
	rnd := rand.New(rand.NewSource(3))
	rays := make([]geom.Ray, 2000)
	for i := range rays {
		o := vec.New(float32(rnd.Float64())*18+1, float32(rnd.Float64())*5+0.3, float32(rnd.Float64())*10+1)
		d := vec.New(float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1)).Norm()
		rays[i] = geom.NewRay(o, d)
	}
	pool := &kernels.Pool{Rays: rays}
	k := kernels.NewAila(data, pool, 8*32, kernels.AilaConfig{})
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = 8
	cfg.MaxCycles = 1 << 24
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	smxB, err := simt.NewSMX(0, cfg, k, simt.Hooks{}, l2)
	if err != nil {
		t.Fatal(err)
	}
	smxB.LaunchAll(0)
	stB, err := smxB.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stD.SIMDEfficiency(32) <= stB.SIMDEfficiency(32) {
		t.Errorf("DMK efficiency %.3f not above baseline %.3f",
			stD.SIMDEfficiency(32), stB.SIMDEfficiency(32))
	}
}

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.Respawns = 2
	a.QueueHighWater = 5
	b.Respawns = 3
	b.ThreadsMoved = 7
	b.QueueHighWater = 9
	a.Add(b)
	if a.Respawns != 5 || a.ThreadsMoved != 7 || a.QueueHighWater != 9 {
		t.Errorf("merged = %+v", a)
	}
}

// TestStatsAddCoverage pins that dmk.Stats.Add merges every numeric
// field (QueueHighWater merges as a max and must still be covered).
func TestStatsAddCoverage(t *testing.T) {
	if err := statcheck.AddCovers(Stats{}); err != nil {
		t.Error(err)
	}
}

// TestLiveWarpsStayExact runs DMK in short chunks. After each, the
// SMX's live-warp count must equal a recount of its warps: divergence
// dumps and respawns re-form warps through phase changes that keep the
// count exact on their own.
func TestLiveWarpsStayExact(t *testing.T) {
	smx, w, _, pool, _ := buildDMK(t, 1500, 8)
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
	if pool.Remaining() != 0 || w.Stats().Respawns == 0 {
		t.Fatalf("%d rays left, %d respawns: the run did not exercise respawn to completion", pool.Remaining(), w.Stats().Respawns)
	}
}

// sink keeps a constructor's result alive so its allocation is counted.
var sink *Wrapper

// TestDMKLoopZeroAlloc: once warm, 64-cycle chunks of divergence dumps,
// batched flushes and spawner respawns allocate nothing, and the
// constructor allocates at most 32 B per slot plus 4 KiB at
// modern-big's per-SMX shape (64 warps of 32 lanes).
func TestDMKLoopZeroAlloc(t *testing.T) {
	smx, w, _, pool, bv := buildDMK(t, 6000, 8)
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
		t.Errorf("DMK hooks allocate: %.1f allocs per 64-cycle chunk (want 0)", avg)
	}
	after := w.Stats()
	if smx.LiveWarps() == 0 || after.Respawns == before.Respawns || after.ThreadsMoved == before.ThreadsMoved {
		t.Fatalf("the measurement did not run DMK's dumps and respawns: %+v -> %+v", before, after)
	}

	const warps, width = 64, 32
	k := kernels.NewAila(kernels.NewSceneData(bv), pool, warps*width, kernels.AilaConfig{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sink = New(DefaultConfig(), k, warps, width)
	runtime.ReadMemStats(&m1)
	got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(32*warps*width+4096)
	if got > budget {
		t.Errorf("New at %dx%d allocates %d B, budget %d B", warps, width, got, budget)
	}
	t.Logf("New at %dx%d allocates %d B (budget %d B)", warps, width, got, budget)
}
