package camera

import (
	"testing"

	"repro/internal/vec"
)

func TestCameraDimensions(t *testing.T) {
	c := New(vec.New(0, 0, 0), vec.New(0, 0, -1), vec.New(0, 1, 0), 60, 640, 480)
	if c.width != 640 || c.height != 480 {
		t.Errorf("dims = %dx%d", c.width, c.height)
	}
}

func TestCenterRayPointsAtTarget(t *testing.T) {
	from := vec.New(1, 2, 3)
	at := vec.New(4, 2, -5)
	c := New(from, at, vec.New(0, 1, 0), 55, 200, 100)
	r := c.Ray(100, 50, 0, 0)
	if r.Origin != from {
		t.Errorf("origin = %v", r.Origin)
	}
	want := at.Sub(from).Norm()
	if r.Dir.Sub(want).Len() > 0.05 {
		t.Errorf("center ray dir %v, want ~%v", r.Dir, want)
	}
}

func TestRaysAreUnit(t *testing.T) {
	c := New(vec.New(0, 1, 5), vec.New(0, 1, 0), vec.New(0, 1, 0), 70, 64, 48)
	for py := 0; py < 48; py += 7 {
		for px := 0; px < 64; px += 7 {
			r := c.Ray(px, py, 0.5, 0.5)
			if l := r.Dir.Len(); l < 0.999 || l > 1.001 {
				t.Fatalf("ray (%d,%d) not unit: %v", px, py, l)
			}
		}
	}
}

func TestCornerRaysDiverge(t *testing.T) {
	c := New(vec.New(0, 0, 0), vec.New(0, 0, -1), vec.New(0, 1, 0), 60, 100, 100)
	tl := c.Ray(0, 0, 0, 0)
	br := c.Ray(99, 99, 1, 1)
	if tl.Dir.Dot(br.Dir) > 0.99 {
		t.Errorf("corner rays too similar: %v vs %v", tl.Dir, br.Dir)
	}
	// Top-left should have +y and -x relative to view center.
	if tl.Dir.Y <= 0 || tl.Dir.X >= 0 {
		t.Errorf("top-left ray oriented wrong: %v", tl.Dir)
	}
}

func TestNeighboringRaysCoherent(t *testing.T) {
	// Primary-ray coherence is the property the paper relies on for
	// bounce-1 SIMD efficiency: adjacent pixels give nearly parallel rays.
	c := New(vec.New(0, 0, 0), vec.New(0, 0, -1), vec.New(0, 1, 0), 60, 640, 480)
	a := c.Ray(320, 240, 0.5, 0.5)
	b := c.Ray(321, 240, 0.5, 0.5)
	if a.Dir.Dot(b.Dir) < 0.99999 {
		t.Errorf("adjacent rays not coherent: dot = %v", a.Dir.Dot(b.Dir))
	}
}
