package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

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
		c := Ctx{Stack: make([]int64, bv.MaxDepth)}
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

// seedKernels builds each kernel the stack-bound and arena tests drive:
// Aila with speculation on, and the while-if kernel. Each returns the
// kernel, its slot table and its committed hits.
var seedKernels = []struct {
	name  string
	fetch int
	build func(d *SceneData, p *Pool, slots int) (simt.Kernel, *slotTable, []geom.Hit)
}{
	{"aila", ailaFetch, func(d *SceneData, p *Pool, slots int) (simt.Kernel, *slotTable, []geom.Hit) {
		k := NewAila(d, p, slots, AilaConfig{Speculative: true})
		return k, &k.slots, k.Hits
	}},
	{"whileif", WiFetch, func(d *SceneData, p *Pool, slots int) (simt.Kernel, *slotTable, []geom.Hit) {
		k := NewWhileIf(d, p, slots, WhileIfConfig{})
		return k, &k.slots, k.Hits
	}},
}

// checkHits compares committed hits against the reference intersector.
func checkHits(t *testing.T, bv *bvh.BVH, rays []geom.Ray, hits []geom.Hit) {
	t.Helper()
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		if hits[i].TriIndex != want.TriIndex {
			if hits[i].TriIndex >= 0 && want.TriIndex >= 0 && absf(hits[i].T-want.T) < 1e-4 {
				continue
			}
			t.Errorf("ray %d: got tri %d, want %d", i, hits[i].TriIndex, want.TriIndex)
		}
	}
}

// TestTravStackBound pins push's bound on the tree that reaches it:
// MaxLeafSize x 2^k coincident triangles that are not axis-aligned.
// Every box then has volume and holds a ray aimed at the triangle, both
// builders fall back to median splits, so every leaf sits at depth
// MaxDepth = k, and a tie sends near-first traversal left, pushing the
// right child at every level. Driving one slot of either kernel from
// its entry block to BlockExit must fill the stack to exactly MaxDepth;
// a push beyond its MaxDepth entries would fault. A scene of
// MaxLeafSize triangles is one leaf under a synthesized root (MaxDepth
// 0) whose empty right box the slab test rejects, so nothing is pushed
// onto the empty stack.
func TestTravStackBound(t *testing.T) {
	leaf := bvh.DefaultOptions().MaxLeafSize
	tri := geom.Triangle{A: vec.New(0, 0, 0), B: vec.New(1, 0.2, 0.3), C: vec.New(0.1, 1, 0.4)}
	n := tri.Normal().Norm()
	rays := []geom.Ray{geom.NewRay(tri.Centroid().Add(n.Scale(2)), n.Scale(-1))}
	builders := []struct {
		name  string
		build func([]geom.Triangle) (*bvh.BVH, error)
	}{
		{"sah", func(tris []geom.Triangle) (*bvh.BVH, error) { return bvh.Build(tris, bvh.DefaultOptions()) }},
		{"lbvh", func(tris []geom.Triangle) (*bvh.BVH, error) { return bvh.BuildLBVH(tris, leaf) }},
	}
	// unused marks stack entries never pushed; no child reference is
	// this large.
	const unused = math.MaxInt64
	for _, depth := range []int{0, 1, 5} {
		tris := make([]geom.Triangle, leaf<<depth)
		for i := range tris {
			tris[i] = tri
		}
		for _, b := range builders {
			bv, err := b.build(tris)
			if err != nil {
				t.Fatal(err)
			}
			if bv.MaxDepth != depth {
				t.Fatalf("%s, %d tris: MaxDepth %d, want %d", b.name, len(tris), bv.MaxDepth, depth)
			}
			data := NewSceneData(bv)
			for _, sk := range seedKernels {
				k, table, hits := sk.build(data, &Pool{Rays: rays}, 1)
				stack := table.arena[0].Stack
				if len(stack) != depth {
					t.Fatalf("%s %s: stack has %d entries, want MaxDepth = %d", b.name, sk.name, len(stack), depth)
				}
				for i := range stack {
					stack[i] = unused
				}
				var res simt.StepResult
				for block, steps := k.Entry(), 0; block != simt.BlockExit; block = res.Next {
					if steps++; steps > 100_000 {
						t.Fatalf("%s %s: the slot did not exit", b.name, sk.name)
					}
					k.Step(0, block, &res)
				}
				peak := 0
				for peak < len(stack) && stack[peak] != unused {
					peak++
				}
				if peak != depth {
					t.Errorf("%s %s, MaxDepth %d: the stack filled to %d entries, want %d", b.name, sk.name, depth, peak, depth)
				}
				if hits[0].TriIndex < 0 {
					t.Errorf("%s %s, MaxDepth %d: the ray missed the triangles", b.name, sk.name, depth)
				}
				checkHits(t, bv, rays, hits)
			}
		}
	}
}

// TestCtxArenaScalesWithRays builds both kernels at modern-big's
// per-SMX shape (2048 Aila slots, 1856 while-if slots, about 209 rays
// per SMX on conference at 12,000 triangles). The constructor must
// allocate the per-slot table plus one context, stack and hit per ray,
// not a context per slot. Draining the pool over every slot, round
// robin, must commit every ray's hit, bind at most min(slots, rays)
// contexts, and fetch-and-bind without allocating.
func TestCtxArenaScalesWithRays(t *testing.T) {
	data, bv := testData(t, scene.ConferenceRoom, 12000)
	rays := randomRays(209, 17)
	perRay := uint64(unsafe.Sizeof(Ctx{})) + uint64(bv.MaxDepth)*8 + uint64(unsafe.Sizeof(geom.Hit{}))
	const slack = 4 << 10
	modernBigSlots := map[string]int{"aila": 2048, "whileif": 1856}
	for _, sk := range seedKernels {
		slots := modernBigSlots[sk.name]
		pool := &Pool{Rays: rays}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		k, table, hits := sk.build(data, pool, slots)
		runtime.ReadMemStats(&after)
		limit := uint64(slots)*8 + uint64(len(rays))*perRay + slack
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d slots, %d rays, MaxDepth %d: the constructor allocated %d B (limit %d)", sk.name, slots, len(rays), bv.MaxDepth, got, limit)
		if got > limit {
			t.Errorf("%s: constructor allocated %d B, want at most %d", sk.name, got, limit)
		}

		// The first slots fetch inside AllocsPerRun (one warm-up run
		// plus 50); then every slot runs round robin until all exit.
		next := make([]int, slots)
		for s := range next {
			next[s] = k.Entry()
		}
		var res simt.StepResult
		slot := 0
		if avg := testing.AllocsPerRun(50, func() {
			k.Step(int32(slot), sk.fetch, &res)
			next[slot] = res.Next
			slot++
		}); avg != 0 {
			t.Errorf("%s: fetch-and-bind allocates %.1f times per fetch", sk.name, avg)
		}
		for live := true; live; {
			live = false
			for s, block := range next {
				if block != simt.BlockExit {
					live = true
					k.Step(int32(s), block, &res)
					next[s] = res.Next
				}
			}
		}
		if pool.Remaining() != 0 {
			t.Fatalf("%s: pool not drained: %d rays left", sk.name, pool.Remaining())
		}
		checkHits(t, bv, rays, hits)
		bound := 0
		for _, i := range table.ctxOf {
			if i >= 0 {
				bound++
			}
		}
		if limit := min(slots, len(rays)); bound != int(table.taken) || bound > limit {
			t.Errorf("%s: %d slots bound, %d arena entries taken; want equal and at most %d", sk.name, bound, table.taken, limit)
		}
	}
}
