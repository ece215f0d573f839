package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/vec"
)

func makeStream(n int) *Stream {
	p := rng.NewPCG32(5, 5)
	s := &Stream{Scene: "test", Bounce: 2}
	for i := 0; i < n; i++ {
		o := vec.New(p.Float32()*10, p.Float32()*10, p.Float32()*10)
		d := vec.New(p.Float32()*2-1, p.Float32()*2-1, p.Float32()*2-1).Norm()
		s.Rays = append(s.Rays, geom.NewRay(o, d))
	}
	return s
}

func TestSetAccessors(t *testing.T) {
	var set Set
	set.Scene = "x"
	for b := 1; b <= MaxBounces; b++ {
		set.Streams[b-1] = Stream{Bounce: b, Rays: make([]geom.Ray, b)}
	}
	if set.TotalRays() != 1+2+3+4+5+6+7+8 {
		t.Errorf("TotalRays = %d", set.TotalRays())
	}
	if set.Bounce(3).Bounce != 3 {
		t.Errorf("Bounce(3) = %+v", set.Bounce(3))
	}
}

func TestBouncePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	var set Set
	set.Bounce(0)
}

func TestCoherenceOrdering(t *testing.T) {
	// Parallel rays: coherence ~1.
	par := &Stream{}
	for i := 0; i < 128; i++ {
		par.Rays = append(par.Rays, geom.NewRay(vec.New(float32(i), 0, 0), vec.New(0, 0, 1)))
	}
	// Random rays: much lower coherence.
	random := makeStream(128)
	cp := par.Coherence(32)
	cr := random.Coherence(32)
	if cp < 0.999 {
		t.Errorf("parallel coherence = %v", cp)
	}
	if cr >= 0.9 {
		t.Errorf("random coherence suspiciously high: %v", cr)
	}
	if cp <= cr {
		t.Errorf("expected parallel > random coherence: %v vs %v", cp, cr)
	}
}

func TestCoherenceDegenerate(t *testing.T) {
	s := &Stream{}
	if s.Coherence(32) != 0 {
		t.Errorf("empty stream coherence should be 0")
	}
	if makeStream(8).Coherence(0) != 0 {
		t.Errorf("zero group size should be 0")
	}
}

// goldenSet is a small fixed set: three non-empty bounces around two
// empty ones, whose rays are exact binary fractions, so its encoding
// depends on nothing but the writer.
func goldenSet() *Set {
	set := &Set{Scene: "golden"}
	for _, b := range []int{1, 2, 4} {
		st := Stream{Scene: "golden", Bounce: b}
		for i := 0; i < 3*b; i++ {
			f := float32(i) / 8
			st.Rays = append(st.Rays, geom.Ray{
				Origin: vec.New(f, -f, float32(b)),
				Dir:    vec.New(0, 1, -0.5),
				TMin:   1.0 / 1024,
				TMax:   float32(b) * 64,
			})
		}
		set.Streams[b-1] = st
	}
	return set
}

// TestWriteSetGolden pins WriteSet's bytes: a set header with the count
// of non-empty streams, then each stream in bounce order as a header,
// the scene name and eight little-endian float32 per ray. The benchmark
// hashes this encoding for its pinned build digests.
func TestWriteSetGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSet().WriteSet(&buf); err != nil {
		t.Fatal(err)
	}
	const (
		wantLen = 4 + 3*(16+4+len("golden")) + (3+6+12)*8*4
		wantSum = "9609cb5c8bf0aedd1dd09269fd4ee093e85fbb483694fbde126a3df653447757"
	)
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); buf.Len() != wantLen || got != wantSum {
		t.Errorf("WriteSet wrote %d bytes with SHA-256 %s; want %d bytes, %s", buf.Len(), got, wantLen, wantSum)
	}
}
