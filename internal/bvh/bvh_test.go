package bvh

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/scene"
	"repro/internal/vec"
)

func buildTestScene(t testing.TB, b scene.Benchmark, budget int) (*scene.Scene, *BVH) {
	t.Helper()
	s := scene.Generate(b, budget)
	bv, err := Build(s.Tris, DefaultOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, bv
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := Build(nil, DefaultOptions()); err == nil {
		t.Errorf("expected error for empty input")
	}
}

func TestBuildSingleTriangle(t *testing.T) {
	tris := []geom.Triangle{{A: vec.New(0, 0, 0), B: vec.New(1, 0, 0), C: vec.New(0, 1, 0)}}
	bv, err := Build(tris, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := bv.Validate(); err != nil {
		t.Fatal(err)
	}
	r := geom.NewRay(vec.New(0.2, 0.2, -1), vec.New(0, 0, 1))
	h := bv.Intersect(r, nil)
	if h.TriIndex != 0 {
		t.Errorf("expected hit on tri 0, got %+v", h)
	}
}

func TestValidateOnAllScenes(t *testing.T) {
	for _, b := range scene.Benchmarks {
		_, bv := buildTestScene(t, b, 2500)
		if err := bv.Validate(); err != nil {
			t.Errorf("%v: %v", b, err)
		}
		if bv.MaxDepth <= 0 || bv.MaxDepth > 60 {
			t.Errorf("%v: suspicious depth %d", b, bv.MaxDepth)
		}
	}
}

// The BVH must return exactly the same closest hit as brute force.
func TestIntersectMatchesBruteForce(t *testing.T) {
	s, bv := buildTestScene(t, scene.ConferenceRoom, 1500)
	rnd := rand.New(rand.NewSource(9))
	center := s.Bounds.Centroid()
	for i := 0; i < 300; i++ {
		o := vec.New(
			float32(rnd.Float64())*20, float32(rnd.Float64())*5+0.2,
			float32(rnd.Float64())*12)
		d := center.Sub(o).Add(vec.New(
			float32(rnd.Float64()*4-2), float32(rnd.Float64()*4-2),
			float32(rnd.Float64()*4-2))).Norm()
		r := geom.NewRay(o, d)
		got := bv.Intersect(r, nil)
		// Brute force.
		want := geom.NoHit
		want.T = r.TMax
		for ti, tri := range s.Tris {
			if tt, u, v, ok := tri.Intersect(r, want.T); ok {
				want.T, want.U, want.V, want.TriIndex = tt, u, v, int32(ti)
			}
		}
		if want.TriIndex < 0 {
			want = geom.NoHit
		}
		if got.TriIndex != want.TriIndex {
			// Allow coincident-surface ties: accept if t matches.
			if got.TriIndex >= 0 && want.TriIndex >= 0 && abs(got.T-want.T) < 1e-4 {
				continue
			}
			t.Fatalf("ray %d: bvh hit %d (t=%v) brute %d (t=%v)", i, got.TriIndex, got.T, want.TriIndex, want.T)
		}
		if got.TriIndex >= 0 && abs(got.T-want.T) > 1e-3 {
			t.Fatalf("ray %d: t mismatch %v vs %v", i, got.T, want.T)
		}
	}
}

func TestIntersectAnyConsistent(t *testing.T) {
	_, bv := buildTestScene(t, scene.CrytekSponza, 1500)
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		o := vec.New(float32(rnd.Float64())*30, float32(rnd.Float64())*14, float32(rnd.Float64())*14)
		d := vec.New(
			float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1),
			float32(rnd.Float64()*2-1))
		if d.Len() < 1e-3 {
			continue
		}
		r := geom.NewRay(o, d.Norm())
		closest := bv.Intersect(r, nil)
		any := bv.IntersectAny(r, nil)
		if (closest.TriIndex >= 0) != any {
			t.Fatalf("ray %d: closest hit=%v but any=%v", i, closest.TriIndex >= 0, any)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, bv := buildTestScene(t, scene.ConferenceRoom, 1200)
	var st TraversalStats
	r := geom.NewRay(vec.New(10, 3, 6), vec.New(0.3, -0.5, 0.2).Norm())
	bv.Intersect(r, &st)
	if st.Rays != 1 || st.NodesVisited == 0 {
		t.Errorf("stats not accumulated: %+v", st)
	}
	first := st
	bv.Intersect(r, &st)
	if st.Rays != 2 || st.NodesVisited != 2*first.NodesVisited || st.TrisTested != 2*first.TrisTested {
		t.Errorf("the same ray again did not add the same work: %+v after %+v", st, first)
	}
}

// Rays inside the closed conference room must always hit something.
func TestClosedRoomAlwaysHits(t *testing.T) {
	_, bv := buildTestScene(t, scene.ConferenceRoom, 1500)
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		o := vec.New(
			1+float32(rnd.Float64())*18, 0.5+float32(rnd.Float64())*5,
			1+float32(rnd.Float64())*10)
		d := vec.New(
			float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1),
			float32(rnd.Float64()*2-1))
		if d.Len() < 1e-2 {
			continue
		}
		r := geom.NewRay(o, d.Norm())
		if h := bv.Intersect(r, nil); h.TriIndex < 0 {
			t.Fatalf("ray %d escaped the closed room: o=%v d=%v", i, o, d.Norm())
		}
	}
}

// Sponza rays should need more node visits on average than conference
// rays — the property §4.4 uses to explain sponza's slowness.
func TestSponzaVisitsMoreNodes(t *testing.T) {
	_, conf := buildTestScene(t, scene.ConferenceRoom, 4000)
	_, spz := buildTestScene(t, scene.CrytekSponza, 4000)
	visits := func(bv *BVH, xmax, ymax, zmax float32) float64 {
		rnd := rand.New(rand.NewSource(23))
		var st TraversalStats
		for i := 0; i < 2000; i++ {
			o := vec.New(
				float32(rnd.Float64())*xmax, float32(rnd.Float64())*ymax,
				float32(rnd.Float64())*zmax)
			d := vec.New(
				float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1),
				float32(rnd.Float64()*2-1))
			if d.Len() < 1e-2 {
				continue
			}
			bv.Intersect(geom.NewRay(o, d.Norm()), &st)
		}
		return float64(st.NodesVisited) / float64(st.Rays)
	}
	c := visits(conf, 20, 6, 12)
	s := visits(spz, 30, 14, 14)
	if s <= c {
		t.Logf("note: sponza %.1f vs conference %.1f node visits", s, c)
		t.Errorf("expected sponza to visit more nodes per ray (got %.1f vs %.1f)", s, c)
	}
}

func TestLeafSizeRespected(t *testing.T) {
	s := scene.Generate(scene.Plants, 3000)
	opts := DefaultOptions()
	opts.MaxLeafSize = 4
	bv, err := Build(s.Tris, opts)
	if err != nil {
		t.Fatal(err)
	}
	bv.LeafRanges(func(first, count int32) {
		if count > 4 {
			t.Errorf("leaf of size %d exceeds max 4", count)
		}
	})
}

func abs(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

// TestBuildAllocationsConstant pins the builder's allocations to a
// fixed count, the same for a lone triangle and for every scene at
// 1,500 and 20,000 triangles: the SAH bins and sweep arrays are made
// once per Build, the triangle order at its final length, and the node
// scratch at the n-node bound, so nothing is allocated per node or
// grown by copying. The returned nodes are an exact copy.
func TestBuildAllocationsConstant(t *testing.T) {
	lone := []geom.Triangle{{A: vec.New(0, 0, 0), B: vec.New(1, 0, 0), C: vec.New(0, 1, 0)}}
	want := testing.AllocsPerRun(3, func() { Build(lone, DefaultOptions()) })
	if want > 10 {
		t.Errorf("Build of one triangle makes %.0f allocations, want at most 10", want)
	}
	for _, b := range scene.Benchmarks {
		for _, budget := range []int{1500, 20000} {
			s := scene.Generate(b, budget)
			var bv *BVH
			got := testing.AllocsPerRun(3, func() { bv, _ = Build(s.Tris, DefaultOptions()) })
			if got != want {
				t.Errorf("%v at %d triangles: Build makes %.0f allocations for %d nodes, want %.0f",
					b, len(s.Tris), got, len(bv.Nodes), want)
			}
			if len(bv.Nodes) != cap(bv.Nodes) || len(bv.TriIndex) != cap(bv.TriIndex) {
				t.Errorf("%v at %d triangles: %d nodes with capacity %d, %d indices with capacity %d",
					b, len(s.Tris), len(bv.Nodes), cap(bv.Nodes), len(bv.TriIndex), cap(bv.TriIndex))
			}
		}
	}
}

func BenchmarkBuildConference(b *testing.B) {
	s := scene.Generate(scene.ConferenceRoom, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(s.Tris, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntersect(b *testing.B) {
	s := scene.Generate(scene.ConferenceRoom, 20000)
	bv, err := Build(s.Tris, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	rays := make([]geom.Ray, 1024)
	for i := range rays {
		o := vec.New(float32(rnd.Float64())*20, float32(rnd.Float64())*6, float32(rnd.Float64())*12)
		d := vec.New(float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1), float32(rnd.Float64()*2-1)).Norm()
		rays[i] = geom.NewRay(o, d)
	}
	_ = s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bv.Intersect(rays[i%len(rays)], nil)
	}
}
