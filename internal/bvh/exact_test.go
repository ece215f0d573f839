package bvh_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/scene"
	"repro/internal/trace"
	"repro/internal/vec"
)

// refIntersect is bvh.Intersect as it stood with a per-node closure
// and a slab test that took the whole ray, kept as the reference
// TestIntersectMatchesReference holds the production loop to, bit for
// bit.
func refIntersect(b *bvh.BVH, r geom.Ray, stats *bvh.TraversalStats) geom.Hit {
	hit := geom.NoHit
	hit.T = r.TMax
	invDir := r.InvDir()
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	if len(b.Nodes) == 0 {
		return geom.NoHit
	}
	for sp > 0 {
		sp--
		ni := stack[sp]
		n := &b.Nodes[ni]
		if stats != nil {
			stats.NodesVisited++
		}
		rr := r
		rr.TMax = hit.T
		tl, okl := refBoxHit(n.LBounds, rr, invDir)
		tr, okr := refBoxHit(n.RBounds, rr, invDir)
		type childRef struct {
			idx   int32
			count int32
			t     float32
		}
		var near, far childRef
		hasNear, hasFar := false, false
		if okl && okr {
			if tl <= tr {
				near = childRef{n.Left, n.LCount, tl}
				far = childRef{n.Right, n.RCount, tr}
			} else {
				near = childRef{n.Right, n.RCount, tr}
				far = childRef{n.Left, n.LCount, tl}
			}
			hasNear, hasFar = true, true
		} else if okl {
			near = childRef{n.Left, n.LCount, tl}
			hasNear = true
		} else if okr {
			near = childRef{n.Right, n.RCount, tr}
			hasNear = true
		}
		process := func(c childRef) {
			if c.idx >= 0 {
				stack[sp] = c.idx
				sp++
				return
			}
			first := ^c.idx
			if c.count == 0 {
				return
			}
			if stats != nil {
				stats.LeavesTested++
			}
			for i := first; i < first+c.count; i++ {
				if stats != nil {
					stats.TrisTested++
				}
				if t, u, v, ok := b.Tris[i].Intersect(r, hit.T); ok {
					hit.T = t
					hit.U = u
					hit.V = v
					hit.TriIndex = b.TriIndex[i]
				}
			}
		}
		if hasFar {
			if far.idx >= 0 {
				stack[sp] = far.idx
				sp++
			} else {
				process(far)
			}
		}
		if hasNear {
			process(near)
		}
	}
	if stats != nil {
		stats.Rays++
		if hit.TriIndex >= 0 {
			stats.Hits++
		}
	}
	if hit.TriIndex < 0 {
		return geom.NoHit
	}
	return hit
}

// refBoxHit is the slab test refIntersect used: the ray by value, its
// TMax standing for the closest hit so far.
func refBoxHit(a geom.AABB, r geom.Ray, invDir vec.V3) (float32, bool) {
	t0x, t1x := refSlab(a.Min.X, a.Max.X, r.Origin.X, invDir.X)
	t0y, t1y := refSlab(a.Min.Y, a.Max.Y, r.Origin.Y, invDir.Y)
	t0z, t1z := refSlab(a.Min.Z, a.Max.Z, r.Origin.Z, invDir.Z)
	tEnter := refMax(t0x, refMax(t0y, t0z))
	tExit := refMin(t1x, refMin(t1y, t1z))
	tEnter = refMax(tEnter, r.TMin)
	tExit = refMin(tExit, r.TMax)
	return tEnter, tEnter <= tExit
}

func refSlab(lo, hi, origin, inv float32) (enter, exit float32) {
	if inv < 0 {
		lo, hi = hi, lo
	}
	return (lo - origin) * inv, (hi - origin) * inv
}

func refMax(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func refMin(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// sameHits fails unless bv.Intersect and refIntersect return the same
// hit to the bit (t, u, v and triangle) for every ray, after the same
// node visits and triangle tests.
func sameHits(t *testing.T, what string, bv *bvh.BVH, rays []geom.Ray) {
	t.Helper()
	bits := func(h geom.Hit) [4]uint32 {
		return [4]uint32{math.Float32bits(h.T), math.Float32bits(h.U), math.Float32bits(h.V), uint32(h.TriIndex)}
	}
	var got, want bvh.TraversalStats
	for i, r := range rays {
		g, w := bv.Intersect(r, &got), refIntersect(bv, r, &want)
		if bits(g) != bits(w) {
			t.Fatalf("%s, ray %d %+v: hit %+v, reference %+v", what, i, r, g, w)
		}
		if got != want {
			t.Fatalf("%s, ray %d %+v: stats %+v, reference %+v", what, i, r, got, want)
		}
	}
}

// corpusInput decodes a FuzzTraverse input (internal/kernels) into its
// triangle soup and rays, as that target's traverseInput does.
func corpusInput(data []byte) ([]geom.Triangle, []geom.Ray) {
	if len(data) == 0 {
		return nil, nil
	}
	grid := func(b byte) float32 { return float32(int8(b)) / 8 }
	n := 1 + int(data[0]%16)
	data = data[1:]
	var tris []geom.Triangle
	for ; n > 0 && len(data) >= 9; n, data = n-1, data[9:] {
		tris = append(tris, geom.Triangle{
			A: vec.New(grid(data[0]), grid(data[1]), grid(data[2])),
			B: vec.New(grid(data[3]), grid(data[4]), grid(data[5])),
			C: vec.New(grid(data[6]), grid(data[7]), grid(data[8])),
		})
	}
	if len(tris) == 0 {
		return nil, nil
	}
	var rays []geom.Ray
	for ; len(data) >= 7 && len(rays) < 8; data = data[7:] {
		o := vec.New(grid(data[1]), grid(data[2]), grid(data[3]))
		if data[0]%2 == 1 {
			t := tris[int(data[0]/2)%len(tris)]
			o = t.A.Add(t.B).Scale(0.5)
		}
		d := vec.New(float32(int8(data[4]))/64, float32(int8(data[5]))/64, float32(int8(data[6]))/64)
		if d == (vec.V3{}) {
			continue
		}
		rays = append(rays, geom.NewRay(o, d))
	}
	return tris, rays
}

// randomRays returns n rays from inside or around box: a quarter with
// random directions, a quarter along one axis (two zero components), a
// quarter with one zero component, and a quarter with one zero
// component whose origin lies on a plane of some node's box on that
// axis, where the slab product is 0·Inf = NaN.
func randomRays(rnd *rand.Rand, bv *bvh.BVH, n int) []geom.Ray {
	box := bv.Bounds
	coord := func(a int) float32 {
		lo, hi := box.Min.Axis(a), box.Max.Axis(a)
		return lo + float32(rnd.Float64()*1.2-0.1)*(hi-lo)
	}
	sign := func() float32 {
		if rnd.Intn(2) == 0 {
			return -1
		}
		return 1
	}
	rays := make([]geom.Ray, 0, n)
	for i := 0; i < n; i++ {
		o := [3]float32{coord(0), coord(1), coord(2)}
		d := [3]float32{float32(rnd.NormFloat64()), float32(rnd.NormFloat64()), float32(rnd.NormFloat64())}
		zero := rnd.Intn(3)
		switch i % 4 {
		case 1:
			d = [3]float32{}
			d[zero] = sign()
		case 2:
			d[zero] = 0
		case 3:
			d[zero] = 0
			nd := &bv.Nodes[rnd.Intn(len(bv.Nodes))]
			b := nd.LBounds
			if rnd.Intn(2) == 0 {
				b = nd.RBounds
			}
			o[zero] = b.Min.Axis(zero)
			if rnd.Intn(2) == 0 {
				o[zero] = b.Max.Axis(zero)
			}
		}
		rays = append(rays, geom.NewRay(vec.New(o[0], o[1], o[2]), vec.New(d[0], d[1], d[2])))
	}
	return rays
}

// TestIntersectMatchesReference holds bvh.Intersect, for trees from
// both builders, to refIntersect over every ray the path tracer
// captures of the four scenes at test scale, over random rays with
// zero direction components and origins on slab planes, and over the
// FuzzTraverse corpus.
func TestIntersectMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	for _, b := range scene.Benchmarks {
		s := scene.Generate(b, 1500)
		sah, err := bvh.Build(s.Tris, bvh.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		lbvh, err := bvh.BuildLBVH(s.Tris, bvh.DefaultOptions().MaxLeafSize)
		if err != nil {
			t.Fatal(err)
		}
		cfg := render.Config{Width: 32, Height: 24, SamplesPerPixel: 1, MaxDepth: trace.MaxBounces, CaptureTraces: true}
		res, err := render.Render(s, sah, render.CameraFor(b, cfg.Width, cfg.Height), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var captured []geom.Ray
		for _, st := range res.Traces.Streams {
			captured = append(captured, st.Rays...)
		}
		for _, bv := range []*bvh.BVH{sah, lbvh} {
			sameHits(t, b.String()+" captured", bv, captured)
			sameHits(t, b.String()+" random", bv, randomRays(rnd, bv, 4000))
		}
	}
	dir := filepath.Join("..", "kernels", "testdata", "fuzz", "FuzzTraverse")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("FuzzTraverse corpus: %d entries, %v", len(entries), err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		arg, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", e.Name(), err)
		}
		tris, rays := corpusInput([]byte(data))
		if len(rays) == 0 {
			continue
		}
		sah, err := bvh.Build(tris, bvh.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		lbvh, err := bvh.BuildLBVH(tris, bvh.DefaultOptions().MaxLeafSize)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, e.Name(), sah, rays)
		sameHits(t, e.Name(), lbvh, rays)
	}
}
