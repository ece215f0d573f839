package kernels

import (
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/simt"
	"repro/internal/vec"
)

// traverseInput decodes a fuzz input into a small triangle soup and a
// handful of rays. Byte 0 sets the triangle count (1 to 16, so a soup
// can need inner nodes below the root); each triangle takes nine
// bytes, one per coordinate, on a grid of eighths, so repeated bytes
// give coincident, axis-aligned and degenerate triangles. Each ray
// takes seven bytes: a mode, an origin and a direction. A direction
// byte of 0 is a zero component (an infinite inverse direction), and
// an odd mode puts the origin at the midpoint of edge AB of triangle
// mode/2, on that triangle's face.
func traverseInput(data []byte) ([]geom.Triangle, []geom.Ray) {
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

// traverseSeed encodes triangles (nine coordinates in eighths) and rays
// (a mode, an origin in eighths and a direction in 64ths) as
// traverseInput reads them.
func traverseSeed(tris [][9]int8, rays [][7]int8) []byte {
	out := []byte{byte(len(tris) - 1)}
	for _, t := range tris {
		for _, c := range t {
			out = append(out, byte(c))
		}
	}
	for _, r := range rays {
		for _, c := range r {
			out = append(out, byte(c))
		}
	}
	return out
}

// FuzzTraverse checks ray-BVH traversal against brute force on small
// soups, for trees from both builders: bvh.Intersect, and both kernels
// driven one slot at a time, must each report a triangle hit at the t
// they report, and find the nearest hit over all triangles whenever
// that hit lies inside its triangle's bounds (see checkNearest). Each
// kernel must also hit or miss as bvh.Intersect does, at the same t.
func FuzzTraverse(f *testing.F) {
	// A lone triangle: one leaf under a synthesized root with an empty
	// right box. A ray down the z axis hits it; one along y from the
	// middle of its edge AB, on its face, has two zero components.
	f.Add(traverseSeed([][9]int8{{0, 0, 0, 16, 0, 0, 0, 16, 0}},
		[][7]int8{{0, 2, 2, 40, 0, 0, -64}, {1, 0, 0, 0, 0, 64, 0}}))
	// Four axis-aligned triangles: two coincident in z = 0, one in
	// z = 1, and a degenerate one with three collinear corners.
	f.Add(traverseSeed([][9]int8{
		{0, 0, 0, 16, 0, 0, 0, 16, 0},
		{0, 0, 0, 16, 0, 0, 0, 16, 0},
		{0, 0, 8, 8, 0, 8, 16, 0, 8},
		{0, 0, 16, 8, 8, 16, 16, 16, 16},
	}, [][7]int8{
		{0, 4, 4, 40, 0, 0, -64},
		{0, 4, 4, -8, 8, 8, 64},
		{0, 4, 2, 8, 0, 0, -64},
		{3, 0, 0, 0, 0, 0, 64},
		{0, 2, -8, 4, 0, 64, 0},
	}))
	// Twelve triangles in two layers, more than one leaf holds, so both
	// builders make inner nodes; rays up the z axis, oblique ones, and
	// one from the face of a bottom triangle.
	var layers [][9]int8
	for z := int8(0); z <= 32; z += 32 {
		for x := int8(0); x < 48; x += 8 {
			layers = append(layers, [9]int8{x, 0, z, x + 8, 0, z, x, 8, z})
		}
	}
	f.Add(traverseSeed(layers, [][7]int8{
		{0, 2, 2, -16, 0, 0, 64},
		{0, 42, 2, -16, 0, 0, 64},
		{1, 0, 0, 0, 0, 0, 64},
		{0, 2, 2, -16, 16, 0, 64},
		{0, -8, 2, 16, 64, 0, 0},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tris, rays := traverseInput(data)
		if len(rays) == 0 {
			return
		}
		sah, err := bvh.Build(tris, bvh.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		lbvh, err := bvh.BuildLBVH(tris, bvh.DefaultOptions().MaxLeafSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, bv := range []*bvh.BVH{sah, lbvh} {
			data := NewSceneData(bv)
			ref := make([]geom.Hit, len(rays))
			for i, r := range rays {
				ref[i] = bv.Intersect(r, nil)
				checkNearest(t, tris, r, ref[i], "bvh.Intersect")
			}
			for _, sk := range seedKernels {
				k, _, hits := sk.build(data, &Pool{Rays: rays}, 1)
				var res simt.StepResult
				for block, steps := k.Entry(), 0; block != simt.BlockExit; block = res.Next {
					if steps++; steps > 1_000_000 {
						t.Fatalf("%s: the slot did not exit", sk.name)
					}
					k.Step(0, block, &res)
				}
				for i, r := range rays {
					checkNearest(t, tris, r, hits[i], sk.name)
					if hits[i].T != ref[i].T || (hits[i].TriIndex < 0) != (ref[i].TriIndex < 0) {
						t.Fatalf("%s, ray %v: hit %+v, bvh.Intersect %+v", sk.name, r, hits[i], ref[i])
					}
				}
			}
		}
	})
}

// checkNearest fails unless hit names a triangle that r hits at hit.T,
// no nearer than the nearest hit over every triangle, and at least as
// near as every hit whose point lies inside its triangle's bounds, by
// a margin on each axis the bounds span, within a few ulps. A hit on
// the bounds' edge is exempt: the slab test rounds there, and it can
// reject a box the triangle test hits at a corner.
func checkNearest(t *testing.T, tris []geom.Triangle, r geom.Ray, hit geom.Hit, who string) {
	t.Helper()
	const margin = 1.0 / 1024
	nearest, inside := r.TMax, r.TMax
	for _, tri := range tris {
		tt, _, _, ok := tri.Intersect(r, r.TMax)
		if !ok {
			continue
		}
		nearest = min(nearest, tt)
		b, p := tri.Bounds(), r.At(tt)
		clear := true
		for a := 0; a < 3; a++ {
			lo, hi := b.Min.Axis(a), b.Max.Axis(a)
			if hi > lo && (p.Axis(a) < lo+margin || p.Axis(a) > hi-margin) {
				clear = false
			}
		}
		if clear {
			inside = min(inside, tt)
		}
	}
	if hit.TriIndex < 0 {
		if inside < r.TMax {
			t.Fatalf("%s, ray %v: missed the hit at t %v", who, r, inside)
		}
		return
	}
	if tt, _, _, ok := tris[hit.TriIndex].Intersect(r, r.TMax); !ok || tt != hit.T {
		t.Fatalf("%s, ray %v: triangle %d is not hit at t %v", who, r, hit.TriIndex, hit.T)
	}
	if hit.T < nearest || hit.T > inside*(1+1e-6) {
		t.Fatalf("%s, ray %v: hit triangle %d at t %v; the nearest hit is at t %v, %v inside its bounds",
			who, r, hit.TriIndex, hit.T, nearest, inside)
	}
}
