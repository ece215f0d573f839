package geom

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestRayAt(t *testing.T) {
	r := NewRay(vec.New(1, 2, 3), vec.New(1, 0, 0))
	if got := r.At(5); got != vec.New(6, 2, 3) {
		t.Errorf("At(5) = %v", got)
	}
	if r.TMin <= 0 || r.TMax != Inf {
		t.Errorf("default ray range wrong: %v %v", r.TMin, r.TMax)
	}
}

func TestAABBUnionExtend(t *testing.T) {
	a := AABB{Min: vec.New(0, 0, 0), Max: vec.New(1, 1, 1)}
	b := AABB{Min: vec.New(2, -1, 0), Max: vec.New(3, 0.5, 2)}
	u := a.Union(b)
	if !u.ContainsBox(a) || !u.ContainsBox(b) {
		t.Errorf("union does not contain inputs: %v", u)
	}
	e := EmptyAABB()
	if d := e.Diagonal(); d.X >= 0 || d.Y >= 0 || d.Z >= 0 {
		t.Errorf("EmptyAABB not inverted: %v", e)
	}
	if got := e.Union(a); got != a {
		t.Errorf("empty union = %v", got)
	}
	if got := e.Extend(vec.New(1, 2, 3)); got.Min != got.Max {
		t.Errorf("extend of empty should be a point: %v", got)
	}
	if e.SurfaceArea() != 0 {
		t.Errorf("empty box area = %v", e.SurfaceArea())
	}
}

func TestAABBSurfaceArea(t *testing.T) {
	a := AABB{Min: vec.New(0, 0, 0), Max: vec.New(1, 2, 3)}
	if got := a.SurfaceArea(); got != 22 {
		t.Errorf("SurfaceArea = %v, want 22", got)
	}
}

func TestAABBIntersectRay(t *testing.T) {
	box := AABB{Min: vec.New(-1, -1, -1), Max: vec.New(1, 1, 1)}
	r := NewRay(vec.New(-5, 0, 0), vec.New(1, 0, 0))
	tt, ok := box.IntersectRay(r.Origin, r.InvDir(), r.TMin, r.TMax)
	if !ok {
		t.Fatalf("axis ray missed box")
	}
	if tt < 3.9 || tt > 4.1 {
		t.Errorf("entry t = %v, want ~4", tt)
	}
	// Miss case: parallel offset ray.
	r2 := NewRay(vec.New(-5, 2, 0), vec.New(1, 0, 0))
	if _, ok := box.IntersectRay(r2.Origin, r2.InvDir(), r2.TMin, r2.TMax); ok {
		t.Errorf("offset ray should miss")
	}
	// Ray starting inside.
	r3 := NewRay(vec.New(0, 0, 0), vec.New(0, 1, 0))
	if _, ok := box.IntersectRay(r3.Origin, r3.InvDir(), r3.TMin, r3.TMax); !ok {
		t.Errorf("inside ray should hit")
	}
	// Ray pointing away.
	r4 := NewRay(vec.New(-5, 0, 0), vec.New(-1, 0, 0))
	if _, ok := box.IntersectRay(r4.Origin, r4.InvDir(), r4.TMin, r4.TMax); ok {
		t.Errorf("away ray should miss")
	}
	// Respect TMax.
	r5 := NewRay(vec.New(-5, 0, 0), vec.New(1, 0, 0))
	r5.TMax = 2
	if _, ok := box.IntersectRay(r5.Origin, r5.InvDir(), r5.TMin, r5.TMax); ok {
		t.Errorf("box beyond TMax should miss")
	}
	// The inverted box is never hit: not from outside, inside or on a
	// face of a real box, and not along an axis, where invDir holds
	// infinities.
	empty := EmptyAABB()
	for _, r := range []Ray{r, r2, r3, r4, NewRay(vec.New(0, 0, 0), vec.New(1, 1, 1)),
		NewRay(vec.New(-1, 0, 0), vec.New(0, 0, -1)), NewRay(vec.New(1, 1, 1), vec.New(-1, -2, 0.5))} {
		if _, ok := empty.IntersectRay(r.Origin, r.InvDir(), r.TMin, r.TMax); ok {
			t.Errorf("ray %v hits the empty box", r)
		}
	}
}

func TestTriangleBasics(t *testing.T) {
	tri := Triangle{A: vec.New(0, 0, 0), B: vec.New(1, 0, 0), C: vec.New(0, 1, 0)}
	if got := tri.Normal().Len() / 2; got != 0.5 {
		t.Errorf("area = %v", got)
	}
	n := tri.Normal().Norm()
	if n != vec.New(0, 0, 1) {
		t.Errorf("Normal = %v", n)
	}
	c := tri.Centroid()
	if !tri.Bounds().Contains(c) {
		t.Errorf("centroid outside bounds")
	}
}

func TestTriangleIntersect(t *testing.T) {
	tri := Triangle{A: vec.New(0, 0, 0), B: vec.New(1, 0, 0), C: vec.New(0, 1, 0)}
	// Hit through the interior.
	r := NewRay(vec.New(0.25, 0.25, -1), vec.New(0, 0, 1))
	tt, u, v, ok := tri.Intersect(r, Inf)
	if !ok {
		t.Fatalf("expected hit")
	}
	if tt < 0.99 || tt > 1.01 {
		t.Errorf("t = %v", tt)
	}
	if u < 0.24 || u > 0.26 || v < 0.24 || v > 0.26 {
		t.Errorf("barycentrics = %v %v", u, v)
	}
	// Miss outside.
	r2 := NewRay(vec.New(0.9, 0.9, -1), vec.New(0, 0, 1))
	if _, _, _, ok := tri.Intersect(r2, Inf); ok {
		t.Errorf("outside ray hit")
	}
	// Parallel ray.
	r3 := NewRay(vec.New(0, 0, -1), vec.New(1, 0, 0))
	if _, _, _, ok := tri.Intersect(r3, Inf); ok {
		t.Errorf("parallel ray hit")
	}
	// Behind origin.
	r4 := NewRay(vec.New(0.25, 0.25, 1), vec.New(0, 0, 1))
	if _, _, _, ok := tri.Intersect(r4, Inf); ok {
		t.Errorf("behind-origin hit")
	}
	// tMax clipping.
	if _, _, _, ok := tri.Intersect(r, 0.5); ok {
		t.Errorf("hit beyond tMax accepted")
	}
}

func TestNoHitSentinel(t *testing.T) {
	if NoHit.TriIndex != -1 || NoHit.T != Inf {
		t.Errorf("NoHit = %+v", NoHit)
	}
}

// Property: a ray aimed at a random point inside a box always hits it.
func TestQuickRayAtBoxHits(t *testing.T) {
	f := func(px, py, pz, ox, oy, oz float32) bool {
		box := AABB{Min: vec.New(-10, -10, -10), Max: vec.New(10, 10, 10)}
		target := vec.New(px, py, pz)           // inside box by construction
		origin := vec.New(ox, oy, oz).Scale(50) // can be in or out
		d := target.Sub(origin)
		if d.Len() < 1e-3 {
			return true
		}
		r := NewRay(origin, d.Norm())
		_, ok := box.IntersectRay(r.Origin, r.InvDir(), r.TMin, r.TMax)
		return ok
	}
	cfg := &quick.Config{MaxCount: 300, Values: func(args []reflect.Value, rnd *rand.Rand) {
		for i := 0; i < 3; i++ { // target inside [-9,9]^3
			args[i] = reflect.ValueOf(float32(rnd.Float64()*18 - 9))
		}
		for i := 3; i < 6; i++ {
			args[i] = reflect.ValueOf(float32(rnd.Float64()*2 - 1))
		}
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: triangle hit point reconstructed from barycentrics matches
// the ray evaluation at the returned t.
func TestQuickTriangleBarycentricConsistency(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	randV := func(s float32) vec.V3 {
		return vec.New(
			float32(rnd.Float64()*2-1)*s,
			float32(rnd.Float64()*2-1)*s,
			float32(rnd.Float64()*2-1)*s)
	}
	for i := 0; i < 300; i++ {
		tri := Triangle{A: randV(5), B: randV(5), C: randV(5)}
		if tri.Normal().Len()/2 < 1e-3 {
			continue
		}
		// Aim at a random interior point.
		u := float32(rnd.Float64())
		v := float32(rnd.Float64()) * (1 - u)
		p := tri.A.Scale(1 - u - v).Add(tri.B.Scale(u)).Add(tri.C.Scale(v))
		origin := p.Add(tri.Normal().Norm().Scale(3)).Add(randV(0.5))
		d := p.Sub(origin).Norm()
		r := NewRay(origin, d)
		tt, hu, hv, ok := tri.Intersect(r, Inf)
		if !ok {
			// Grazing precision misses are acceptable near edges.
			if u > 0.05 && v > 0.05 && u+v < 0.95 {
				t.Fatalf("interior aim missed: tri=%+v u=%v v=%v", tri, u, v)
			}
			continue
		}
		q := tri.A.Scale(1 - hu - hv).Add(tri.B.Scale(hu)).Add(tri.C.Scale(hv))
		if q.Sub(r.At(tt)).Len() > 1e-2 {
			t.Fatalf("barycentric point mismatch: %v vs %v", q, r.At(tt))
		}
	}
}

// Property: triangle bounds contain all three vertices.
func TestQuickTriangleBounds(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float32) bool {
		tri := Triangle{A: vec.New(ax, ay, az), B: vec.New(bx, by, bz), C: vec.New(cx, cy, cz)}
		b := tri.Bounds()
		return b.Contains(tri.A) && b.Contains(tri.B) && b.Contains(tri.C)
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, rnd *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(float32(rnd.Float64()*100 - 50))
		}
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
