// Package geom provides the ray, bounding-box and triangle primitives
// shared by the CPU reference tracer and the simulated GPU kernels.
package geom

import (
	"math"

	"repro/internal/vec"
)

// Inf is a large float32 used as "no hit" ray parameter.
const Inf = float32(math.MaxFloat32)

// Ray is a half line origin + t*dir for t in [TMin, TMax].
type Ray struct {
	Origin vec.V3
	Dir    vec.V3
	TMin   float32
	TMax   float32
}

// NewRay builds a ray with the default parametric range (1e-4, Inf).
// The small TMin avoids self-intersection at the originating surface.
func NewRay(o, d vec.V3) Ray {
	return Ray{Origin: o, Dir: d, TMin: 1e-4, TMax: Inf}
}

// At returns the point at parameter t along the ray.
func (r Ray) At(t float32) vec.V3 { return r.Origin.Add(r.Dir.Scale(t)) }

// InvDir returns component-wise 1/Dir. Division by zero yields ±Inf,
// which the slab test below handles correctly for axis-parallel rays.
func (r Ray) InvDir() vec.V3 {
	return vec.V3{X: 1 / r.Dir.X, Y: 1 / r.Dir.Y, Z: 1 / r.Dir.Z}
}

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max vec.V3
}

// EmptyAABB returns the inverted box that absorbs any union.
func EmptyAABB() AABB {
	return AABB{Min: vec.Splat(Inf), Max: vec.Splat(-Inf)}
}

// Union returns the smallest box containing both a and b.
func (a AABB) Union(b AABB) AABB {
	return AABB{Min: a.Min.Min(b.Min), Max: a.Max.Max(b.Max)}
}

// Extend returns the smallest box containing a and point p.
func (a AABB) Extend(p vec.V3) AABB {
	return AABB{Min: a.Min.Min(p), Max: a.Max.Max(p)}
}

// Centroid returns the center of the box.
func (a AABB) Centroid() vec.V3 { return a.Min.Add(a.Max).Scale(0.5) }

// Diagonal returns Max - Min.
func (a AABB) Diagonal() vec.V3 { return a.Max.Sub(a.Min) }

// SurfaceArea returns the total surface area of the box; an empty
// (inverted) box has area 0.
func (a AABB) SurfaceArea() float32 {
	d := a.Diagonal()
	if d.X < 0 || d.Y < 0 || d.Z < 0 {
		return 0
	}
	return 2 * (d.X*d.Y + d.Y*d.Z + d.Z*d.X)
}

// Contains reports whether point p lies inside or on the box.
func (a AABB) Contains(p vec.V3) bool {
	return p.X >= a.Min.X && p.X <= a.Max.X &&
		p.Y >= a.Min.Y && p.Y <= a.Max.Y &&
		p.Z >= a.Min.Z && p.Z <= a.Max.Z
}

// ContainsBox reports whether b is fully inside a.
func (a AABB) ContainsBox(b AABB) bool {
	return a.Contains(b.Min) && a.Contains(b.Max)
}

// IntersectRay performs the slab test against the ray from origin with
// precomputed inverse direction invDir, over the parameter range
// (tMin, tMax): the ray's own TMin and the closest hit so far. It
// returns the entry parameter and whether the box is hit within the
// range. The sign of each invDir component picks that axis's entry and
// exit plane, so an inverted box (EmptyAABB) yields an empty interval
// and is never hit. Both traversals (the CPU closest-hit loop and the
// simulated kernels' node step) share this one routine, so they agree
// on every box to the bit; the ray's fields are passed apart so neither
// copies a Ray per node.
func (a AABB) IntersectRay(origin, invDir vec.V3, tMin, tMax float32) (float32, bool) {
	t0x, t1x := slab(a.Min.X, a.Max.X, origin.X, invDir.X)
	t0y, t1y := slab(a.Min.Y, a.Max.Y, origin.Y, invDir.Y)
	t0z, t1z := slab(a.Min.Z, a.Max.Z, origin.Z, invDir.Z)
	tEnter := max3(t0x, t0y, t0z)
	tExit := min3(t1x, t1y, t1z)
	tEnter = maxf(tEnter, tMin)
	tExit = minf(tExit, tMax)
	return tEnter, tEnter <= tExit
}

// slab returns the ray parameters at which one axis's planes lo and hi
// are entered and left: lo first when the ray runs toward +axis, hi
// first when it runs toward -axis.
func slab(lo, hi, origin, inv float32) (enter, exit float32) {
	if inv < 0 {
		lo, hi = hi, lo
	}
	return (lo - origin) * inv, (hi - origin) * inv
}

// Triangle is an indexed triangle with a material id. Vertices are
// stored inline so the simulated kernels can treat triangle records as
// fixed-size memory objects.
type Triangle struct {
	A, B, C  vec.V3
	Material int32
}

// Bounds returns the triangle's bounding box.
func (t Triangle) Bounds() AABB {
	return AABB{Min: t.A.Min(t.B).Min(t.C), Max: t.A.Max(t.B).Max(t.C)}
}

// Centroid returns the triangle's centroid.
func (t Triangle) Centroid() vec.V3 {
	return t.A.Add(t.B).Add(t.C).Scale(1.0 / 3.0)
}

// Normal returns the (unnormalized) geometric normal.
func (t Triangle) Normal() vec.V3 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A))
}

// Hit records a ray/triangle intersection.
type Hit struct {
	T        float32 // ray parameter of the hit
	U, V     float32 // barycentric coordinates
	TriIndex int32   // index of the triangle hit, -1 if none
}

// NoHit is the sentinel returned when a ray misses everything.
var NoHit = Hit{T: Inf, TriIndex: -1}

// Intersect runs the Möller–Trumbore ray/triangle test. It returns the
// hit parameters and whether the ray hits within (r.TMin, tMax).
func (t Triangle) Intersect(r Ray, tMax float32) (tt, u, v float32, ok bool) {
	e1 := t.B.Sub(t.A)
	e2 := t.C.Sub(t.A)
	p := r.Dir.Cross(e2)
	det := e1.Dot(p)
	if det > -1e-9 && det < 1e-9 {
		return 0, 0, 0, false
	}
	inv := 1 / det
	s := r.Origin.Sub(t.A)
	u = s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, 0, 0, false
	}
	q := s.Cross(e1)
	v = r.Dir.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, 0, 0, false
	}
	tt = e2.Dot(q) * inv
	if tt <= r.TMin || tt >= tMax {
		return 0, 0, 0, false
	}
	return tt, u, v, true
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max3(a, b, c float32) float32 { return maxf(a, maxf(b, c)) }
func min3(a, b, c float32) float32 { return minf(a, minf(b, c)) }
