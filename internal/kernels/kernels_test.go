package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/memsys"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/vec"
)

func testData(t testing.TB, b scene.Benchmark, tris int) (*SceneData, *bvh.BVH) {
	t.Helper()
	s := scene.Generate(b, tris)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return NewSceneData(bv), bv
}

func randomRays(n int, seed int64) []geom.Ray {
	rnd := rand.New(rand.NewSource(seed))
	rays := make([]geom.Ray, n)
	for i := range rays {
		o := vec.New(
			float32(rnd.Float64())*18+1, float32(rnd.Float64())*5+0.3,
			float32(rnd.Float64())*10+1)
		d := vec.New(
			float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1),
			float32(rnd.Float64()*2-1))
		for d.Len() < 1e-2 {
			d = vec.New(float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1))
		}
		rays[i] = geom.NewRay(o, d.Norm())
	}
	return rays
}

func TestChildRefEncoding(t *testing.T) {
	if !isLeaf(leafChild(0, 1)) {
		t.Errorf("leafChild(0,1) not a leaf")
	}
	if isLeaf(innerChild(5)) {
		t.Errorf("innerChild is a leaf")
	}
	if isLeaf(RefNone) {
		t.Errorf("RefNone is a leaf")
	}
	for _, tc := range []struct{ first, count int32 }{
		{0, 0}, {1, 8}, {123456, 3}, {1 << 30, 255},
	} {
		f, c := leafBounds(leafChild(tc.first, tc.count))
		if f != tc.first || c != tc.count {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", tc.first, tc.count, f, c)
		}
	}
}

func TestSceneDataAddresses(t *testing.T) {
	data, bv := testData(t, scene.ConferenceRoom, 800)
	if data.NodeAddr(1)-data.NodeAddr(0) != bvh.NodeBytes {
		t.Errorf("node stride wrong")
	}
	if data.TriAddr(1)-data.TriAddr(0) != bvh.TriBytes {
		t.Errorf("tri stride wrong")
	}
	// Regions must not overlap.
	nodesEnd := data.NodeAddr(int32(len(bv.Nodes)))
	if data.TriBase < nodesEnd {
		t.Errorf("tri base overlaps nodes")
	}
	trisEnd := data.TriAddr(int32(len(bv.Tris)))
	if data.RayBase < trisEnd {
		t.Errorf("ray base overlaps tris")
	}
	if data.HitBase <= data.RayBase {
		t.Errorf("hit base overlaps rays")
	}
}

func TestPool(t *testing.T) {
	rays := randomRays(5, 1)
	p := &Pool{Rays: rays}
	for i := 0; i < 5; i++ {
		r, idx, ok := p.Fetch()
		if !ok || idx != int32(i) || r != rays[i] {
			t.Fatalf("fetch %d wrong", i)
		}
	}
	if _, _, ok := p.Fetch(); ok {
		t.Errorf("fetch from dry pool succeeded")
	}
	if p.Remaining() != 0 {
		t.Errorf("remaining = %d", p.Remaining())
	}
}

// Drive a single context through the per-thread traversal semantics and
// compare against the reference intersector.
func TestCtxTraversalMatchesReference(t *testing.T) {
	data, bv := testData(t, scene.ConferenceRoom, 1500)
	rays := randomRays(300, 7)
	for i, r := range rays {
		var c Ctx
		c.Pending = RefNone
		c.CurLeaf = RefNone
		c.initRay(r, int32(i))
		steps := 0
		for c.Cur != RefNone {
			if isLeaf(c.Cur) {
				ref := c.Cur
				c.Cur = c.pop()
				if c.beginLeaf(ref) {
					for {
						_, more := c.triStep(data)
						if !more {
							break
						}
					}
				}
				continue
			}
			c.nodeStep(data)
			steps++
			if steps > 100000 {
				t.Fatalf("ray %d: traversal did not terminate", i)
			}
		}
		want := bv.Intersect(r, nil)
		got := c.finalHit()
		if got.TriIndex != want.TriIndex {
			if got.TriIndex >= 0 && want.TriIndex >= 0 && absf(got.T-want.T) < 1e-4 {
				continue
			}
			t.Fatalf("ray %d: got tri %d t=%v, want tri %d t=%v",
				i, got.TriIndex, got.T, want.TriIndex, want.T)
		}
	}
}

func absf(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

// runKernel executes a kernel on one SMX and returns its stats.
func runKernel(t *testing.T, k simt.Kernel, warps int, launch func(*simt.SMX)) simt.Stats {
	t.Helper()
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 24
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	s, err := simt.NewSMX(0, cfg, k, simt.Hooks{}, l2)
	if err != nil {
		t.Fatal(err)
	}
	if launch != nil {
		launch(s)
	} else {
		s.LaunchAll(0)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAilaKernelTracesCorrectly(t *testing.T) {
	data, bv := testData(t, scene.ConferenceRoom, 1200)
	rays := randomRays(600, 3)
	for _, spec := range []bool{false, true} {
		pool := &Pool{Rays: rays}
		k := NewAila(data, pool, 4*32, AilaConfig{Speculative: spec})
		st := runKernel(t, k, 4, nil)
		if st.WarpInstrs == 0 {
			t.Fatalf("no instructions issued")
		}
		bad := 0
		for i, r := range rays {
			want := bv.Intersect(r, nil)
			if k.Hits[i].TriIndex != want.TriIndex {
				if k.Hits[i].TriIndex >= 0 && want.TriIndex >= 0 && absf(k.Hits[i].T-want.T) < 1e-4 {
					continue
				}
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("spec=%v: %d/%d wrong hits", spec, bad, len(rays))
		}
	}
}

func TestAilaSpeculationImprovesEfficiency(t *testing.T) {
	data, _ := testData(t, scene.ConferenceRoom, 1500)
	rays := randomRays(2000, 11)
	run := func(spec bool) float64 {
		pool := &Pool{Rays: rays}
		k := NewAila(data, pool, 8*32, AilaConfig{Speculative: spec})
		st := runKernel(t, k, 8, nil)
		return st.SIMDEfficiency(32)
	}
	off := run(false)
	on := run(true)
	if on <= off {
		t.Errorf("speculative traversal did not improve efficiency: %.3f vs %.3f", on, off)
	}
}

func TestWhileIfStatesAndBlocks(t *testing.T) {
	data, _ := testData(t, scene.ConferenceRoom, 800)
	pool := &Pool{Rays: randomRays(10, 5)}
	k := NewWhileIf(data, pool, 64, WhileIfConfig{})
	if k.Entry() != WiRdctrl {
		t.Errorf("entry = %d", k.Entry())
	}
	if !k.Blocks()[WiRdctrl].Gated {
		t.Errorf("rdctrl not gated")
	}
	if k.Blocks()[WiRdctrl].Tag != simt.TagCtrl {
		t.Errorf("rdctrl not tagged ctrl")
	}
	// All slots start in fetch state.
	for s := int32(0); s < 64; s++ {
		if k.StateOf(s) != StateFetch {
			t.Errorf("slot %d initial state = %v", s, k.StateOf(s))
		}
	}
	if k.StateOf(-1) != StateEmpty {
		t.Errorf("negative slot should be empty")
	}
}

// Drive the while-if kernel manually (without the DRS) through its
// state machine for a single thread and verify the hit.
func TestWhileIfSingleThreadSemantics(t *testing.T) {
	data, bv := testData(t, scene.ConferenceRoom, 1000)
	rays := randomRays(30, 9)
	pool := &Pool{Rays: rays}
	k := NewWhileIf(data, pool, 32, WhileIfConfig{})
	var res simt.StepResult
	slot := int32(0)
	for iter := 0; iter < 2_000_000; iter++ {
		k.Step(slot, WiRdctrl, &res)
		if res.Next == simt.BlockExit {
			break
		}
		block := res.Next
		for {
			k.Step(slot, block, &res)
			if res.Next == WiRdctrl {
				break
			}
			block = res.Next
		}
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained: %d", pool.Remaining())
	}
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		if k.Hits[i].TriIndex != want.TriIndex {
			if k.Hits[i].TriIndex >= 0 && want.TriIndex >= 0 && absf(k.Hits[i].T-want.T) < 1e-4 {
				continue
			}
			t.Errorf("ray %d: got %d want %d", i, k.Hits[i].TriIndex, want.TriIndex)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateEmpty: "empty", StateFetch: "fetch", StateInner: "inner", StateLeaf: "leaf",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

func TestTravStackOverflowPanics(t *testing.T) {
	var c Ctx
	defer func() {
		if recover() == nil {
			t.Errorf("expected overflow panic")
		}
	}()
	for i := 0; i < maxTravStack+1; i++ {
		c.push(innerChild(int32(i)))
	}
}
