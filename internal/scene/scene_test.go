package scene

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/vec"
)

func TestBuilderQuadBoxCounts(t *testing.T) {
	bd := NewBuilder("t")
	m := bd.AddMaterial(Material{Kind: Diffuse, Albedo: vec.Splat(0.5)})
	bd.AddQuad(vec.New(0, 0, 0), vec.New(1, 0, 0), vec.New(1, 1, 0), vec.New(0, 1, 0), m)
	if bd.TriCount() != 2 {
		t.Errorf("quad tri count = %d", bd.TriCount())
	}
	bd.AddBox(geom.AABB{Min: vec.New(0, 0, 0), Max: vec.New(1, 1, 1)}, m)
	if bd.TriCount() != 14 {
		t.Errorf("box tri count = %d", bd.TriCount())
	}
}

func TestBuilderLightsTracked(t *testing.T) {
	bd := NewBuilder("t")
	d := bd.AddMaterial(Material{Kind: Diffuse, Albedo: vec.Splat(0.5)})
	e := bd.AddMaterial(Material{Kind: Emissive, Emission: vec.Splat(5)})
	bd.AddTriangle(vec.New(0, 0, 0), vec.New(1, 0, 0), vec.New(0, 1, 0), d)
	bd.AddTriangle(vec.New(0, 0, 1), vec.New(1, 0, 1), vec.New(0, 1, 1), e)
	s := bd.Scene()
	if len(s.Lights) != 1 || s.Lights[0] != 1 {
		t.Errorf("lights = %v", s.Lights)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSphereClosedAndCounted(t *testing.T) {
	bd := NewBuilder("t")
	m := bd.AddMaterial(Material{Kind: Diffuse, Albedo: vec.Splat(0.5)})
	bd.AddSphere(vec.New(0, 0, 0), 1, 8, 16, m)
	// 8 lat x 16 lon: poles have 16 tris each, middle rows have 2 each.
	want := 16 + 16 + (8-2)*16*2
	if bd.TriCount() != want {
		t.Errorf("sphere tri count = %d, want %d", bd.TriCount(), want)
	}
	// All vertices on the unit sphere.
	for _, tri := range bd.Scene().Tris {
		for _, v := range []vec.V3{tri.A, tri.B, tri.C} {
			if l := v.Len(); l < 0.99 || l > 1.01 {
				t.Fatalf("vertex off sphere: %v (len %v)", v, l)
			}
		}
	}
}

func TestCylinderCount(t *testing.T) {
	bd := NewBuilder("t")
	m := bd.AddMaterial(Material{Kind: Diffuse, Albedo: vec.Splat(0.5)})
	bd.AddCylinder(vec.New(0, 0, 0), 1, 2, 12, m)
	if bd.TriCount() != 24 {
		t.Errorf("cylinder tri count = %d, want 24", bd.TriCount())
	}
}

func TestBenchmarkNamesAndPaperCounts(t *testing.T) {
	if len(Benchmarks) != 4 {
		t.Fatalf("expected 4 benchmarks")
	}
	names := map[Benchmark]string{
		ConferenceRoom: "conference", FairyForest: "fairy",
		CrytekSponza: "sponza", Plants: "plants",
	}
	for b, n := range names {
		if b.String() != n {
			t.Errorf("%v name = %q", b, b.String())
		}
		if b.PaperTriCount() <= 0 {
			t.Errorf("%v has no paper tri count", b)
		}
	}
	if Plants.PaperTriCount() != 1_100_000 {
		t.Errorf("plants paper count = %d", Plants.PaperTriCount())
	}
}

func TestGenerateAllScenes(t *testing.T) {
	const budget = 3000
	for _, b := range Benchmarks {
		s := Generate(b, budget)
		if s.Name != b.String() {
			t.Errorf("%v scene name = %q", b, s.Name)
		}
		if len(s.Tris) < budget {
			t.Errorf("%v generated %d tris, want >= %d", b, len(s.Tris), budget)
		}
		if len(s.Tris) > budget*2 {
			t.Errorf("%v overshot budget badly: %d tris", b, len(s.Tris))
		}
		if len(s.Lights) == 0 {
			t.Errorf("%v has no lights", b)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v invalid: %v", b, err)
		}
		if s.Bounds.SurfaceArea() == 0 {
			t.Errorf("%v empty bounds", b)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(ConferenceRoom, 2000)
	b := Generate(ConferenceRoom, 2000)
	if len(a.Tris) != len(b.Tris) {
		t.Fatalf("non-deterministic tri count: %d vs %d", len(a.Tris), len(b.Tris))
	}
	for i := range a.Tris {
		if a.Tris[i] != b.Tris[i] {
			t.Fatalf("tri %d differs between runs", i)
		}
	}
}

func TestFairyIsTeapotInStadium(t *testing.T) {
	s := Generate(FairyForest, 6000)
	// Most triangles must be concentrated in a small central region
	// relative to the whole scene extent.
	center := geom.AABB{Min: vec.New(-3, -1, -3), Max: vec.New(3, 4, 3)}
	inCenter := 0
	for _, tri := range s.Tris {
		if center.ContainsBox(tri.Bounds()) {
			inCenter++
		}
	}
	frac := float64(inCenter) / float64(len(s.Tris))
	if frac < 0.5 {
		t.Errorf("only %.0f%% of fairy tris in the central model; want teapot-in-stadium", frac*100)
	}
	d := s.Bounds.Diagonal()
	if d.X < 100 || d.Z < 100 {
		t.Errorf("fairy environment not large: %v", d)
	}
}

func TestPlantsIsDense(t *testing.T) {
	s := Generate(Plants, 8000)
	var areaSum float32
	for _, tri := range s.Tris {
		areaSum += tri.Normal().Len() / 2
	}
	avg := areaSum / float32(len(s.Tris))
	// Excluding the two huge quads, leaves are tiny; average area must
	// be dominated by them only slightly — check median-ish via count of
	// small triangles instead.
	small := 0
	for _, tri := range s.Tris {
		if tri.Normal().Len()/2 < 0.1 {
			small++
		}
	}
	if float64(small)/float64(len(s.Tris)) < 0.8 {
		t.Errorf("plants not dominated by small triangles (%d/%d), avg area %v", small, len(s.Tris), avg)
	}
}

func TestValidateCatchesBadMaterial(t *testing.T) {
	s := &Scene{
		Name:   "bad",
		Tris:   []geom.Triangle{{A: vec.New(0, 0, 0), B: vec.New(1, 0, 0), C: vec.New(0, 1, 0), Material: 5}},
		Bounds: geom.AABB{Min: vec.Splat(-1), Max: vec.Splat(2)},
	}
	if err := s.Validate(); err == nil {
		t.Errorf("expected invalid material error")
	}
}

func TestMaterialKindString(t *testing.T) {
	for k, want := range map[MaterialKind]string{
		Diffuse: "diffuse", Mirror: "mirror", Glossy: "glossy", Emissive: "emissive",
	} {
		if k.String() != want {
			t.Errorf("%d String = %q", k, k.String())
		}
	}
}
