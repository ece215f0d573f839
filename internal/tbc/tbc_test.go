package tbc

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

func buildTBC(t testing.TB, nrays, warps, wpb int) (*simt.SMX, *Wrapper, *kernels.Aila, *kernels.Pool, *bvh.BVH) {
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
	w := New(Config{WarpsPerBlock: wpb}, k, warps, 32)
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

func TestBlockAssignment(t *testing.T) {
	k := &kernels.Aila{}
	w := New(Config{WarpsPerBlock: 6}, k, 14, 32)
	if len(w.blocks) != 3 {
		t.Fatalf("14 warps / 6 per block = %d blocks, want 3", len(w.blocks))
	}
	if len(w.blocks[2].warps) != 2 {
		t.Errorf("last block has %d warps, want 2", len(w.blocks[2].warps))
	}
	if w.warpBlock[13] != 2 {
		t.Errorf("warp 13 in block %d", w.warpBlock[13])
	}
}

func TestTBCTracesCorrectly(t *testing.T) {
	smx, w, k, pool, bv := buildTBC(t, 1500, 12, 6)
	st, err := smx.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained")
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
	if w.Stats().Compactions == 0 || w.Stats().Syncs == 0 {
		t.Errorf("TBC never compacted: %+v", w.Stats())
	}
	if st.BarrierStallCycles == 0 {
		t.Errorf("no barrier stalls recorded")
	}
	// No threads may be stranded in pending columns.
	for b, tb := range w.blocks {
		if tb.pending != 0 {
			t.Fatalf("block %d: %d threads stranded pending", b, tb.pending)
		}
		for target, n := range tb.npend {
			if n != 0 {
				t.Fatalf("block %d: %d threads stranded pending target %d", b, n, target)
			}
		}
		for i, top := range tb.heads {
			if top >= 0 {
				t.Fatalf("block %d: slot %d stranded in target %d's lane %d column", b, top, i/w.warpSize, i%w.warpSize)
			}
		}
	}
}

func TestTBCEfficiencyAboveBaseline(t *testing.T) {
	smxT, _, _, _, _ := buildTBC(t, 2000, 12, 6)
	stT, err := smxT.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline without TBC on the same workload.
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
	k := kernels.NewAila(data, pool, 12*32, kernels.AilaConfig{})
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = 12
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
	if stT.SIMDEfficiency(32) <= stB.SIMDEfficiency(32) {
		t.Errorf("TBC efficiency %.3f not above baseline %.3f",
			stT.SIMDEfficiency(32), stB.SIMDEfficiency(32))
	}
}

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.Compactions = 1
	b.Compactions = 2
	b.WarpsFormed = 5
	b.Syncs = 7
	a.Add(b)
	if a.Compactions != 3 || a.WarpsFormed != 5 || a.Syncs != 7 {
		t.Errorf("merged = %+v", a)
	}
}

// TestStatsAddCoverage pins that tbc.Stats.Add merges every numeric
// field; harness.RunNamed folds per-SMX TBC stats with it.
func TestStatsAddCoverage(t *testing.T) {
	if err := statcheck.AddCovers(Stats{}); err != nil {
		t.Error(err)
	}
}

// TestLiveWarpsStayExact runs TBC in short chunks. After each, the
// SMX's live-warp count must equal a recount of its warps: syncs park
// warps and compaction resumes them through phase changes that keep
// the count exact on their own.
func TestLiveWarpsStayExact(t *testing.T) {
	smx, w, _, pool, _ := buildTBC(t, 1500, 8, 4)
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
	if pool.Remaining() != 0 || w.Stats().Syncs == 0 {
		t.Fatalf("%d rays left, %d syncs: the run did not exercise compaction to completion", pool.Remaining(), w.Stats().Syncs)
	}
}

// sink keeps a constructor's result alive so its allocation is counted.
var sink *Wrapper

// TestTBCLoopZeroAlloc: once warm, 64-cycle chunks of barrier syncs,
// compactions and warp formation allocate nothing, and the constructor
// allocates at most 32 B per slot plus 4 KiB at modern-big's per-SMX
// shape (64 warps of 32 lanes).
func TestTBCLoopZeroAlloc(t *testing.T) {
	smx, w, _, pool, bv := buildTBC(t, 6000, 12, 6)
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
		t.Errorf("TBC hooks allocate: %.1f allocs per 64-cycle chunk (want 0)", avg)
	}
	after := w.Stats()
	if smx.LiveWarps() == 0 || after.Syncs == before.Syncs || after.WarpsFormed == before.WarpsFormed {
		t.Fatalf("the measurement did not run TBC's barriers and compaction: %+v -> %+v", before, after)
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
