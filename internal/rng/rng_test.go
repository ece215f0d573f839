package rng

import (
	"math"
	"testing"
)

func TestPCG32Deterministic(t *testing.T) {
	a := NewPCG32(42, 1)
	b := NewPCG32(42, 1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestPCG32StreamsDiffer(t *testing.T) {
	a := NewPCG32(42, 1)
	b := NewPCG32(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams too correlated: %d/100 equal", same)
	}
}

func TestFloat32Range(t *testing.T) {
	p := NewPCG32(7, 3)
	for i := 0; i < 10000; i++ {
		v := p.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestFloat32Mean(t *testing.T) {
	p := NewPCG32(11, 5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(p.Float32())
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestIntN(t *testing.T) {
	p := NewPCG32(1, 1)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := p.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestIntNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("IntN(0) should panic")
		}
	}()
	NewPCG32(1, 1).IntN(0)
}

func TestRadicalInverseBase2(t *testing.T) {
	// Base-2 radical inverse of 1,2,3,4 = 0.5, 0.25, 0.75, 0.125.
	want := []float32{0, 0.5, 0.25, 0.75, 0.125}
	for i, w := range want {
		got := RadicalInverse(0, uint64(i))
		if diff := float64(got - w); math.Abs(diff) > 1e-6 {
			t.Errorf("RadicalInverse(2, %d) = %v, want %v", i, got, w)
		}
	}
}

func TestRadicalInverseRange(t *testing.T) {
	for d := 0; d < len(primes); d++ {
		for i := uint64(0); i < 1000; i++ {
			v := RadicalInverse(d, i)
			if v < 0 || v >= 1 {
				t.Fatalf("radical inverse out of range: dim %d idx %d = %v", d, i, v)
			}
		}
	}
}

func TestHaltonStratification(t *testing.T) {
	// The first 16 base-2 samples must land in distinct 1/16 strata.
	var h Halton
	h.Reset(0)
	seen := make(map[int]bool)
	for i := uint64(0); i < 16; i++ {
		h.StartSample(i)
		v := h.Next1D()
		stratum := int(v * 16)
		if seen[stratum] {
			t.Fatalf("stratum %d hit twice", stratum)
		}
		seen[stratum] = true
	}
}

func TestHaltonDimensionsAdvance(t *testing.T) {
	var h Halton
	h.Reset(3)
	h.StartSample(5)
	a := h.Next1D()
	b := h.Next1D()
	h.StartSample(5)
	a2, b2 := h.Next2D()
	if a != a2 || b != b2 {
		t.Errorf("Next2D disagrees with two Next1D calls")
	}
}

func TestHaltonPixelDecorrelation(t *testing.T) {
	var h0 Halton
	h0.Reset(0)
	var h1 Halton
	h1.Reset(1)
	same := 0
	for i := uint64(0); i < 64; i++ {
		h0.StartSample(i)
		h1.StartSample(i)
		if h0.Next1D() == h1.Next1D() {
			same++
		}
	}
	if same > 4 {
		t.Errorf("pixel streams too similar: %d/64", same)
	}
}

func BenchmarkPCG32(b *testing.B) {
	p := NewPCG32(1, 1)
	for i := 0; i < b.N; i++ {
		_ = p.Float32()
	}
}

func BenchmarkHalton(b *testing.B) {
	var h Halton
	h.Reset(1)
	for i := 0; i < b.N; i++ {
		h.StartSample(uint64(i))
		_, _ = h.Next2D()
	}
}

// TestInPlaceSeedingMatchesConstructors pins Seed to the sequences
// NewPCG32 gives and Reset to the samples of a fresh Halton, reusing
// one value of each across seeds.
func TestInPlaceSeedingMatchesConstructors(t *testing.T) {
	var p PCG32
	var h Halton
	for seed := uint64(0); seed < 8; seed++ {
		p.Seed(seed, 77)
		want := NewPCG32(seed, 77)
		for i := 0; i < 16; i++ {
			if got, w := p.Next(), want.Next(); got != w {
				t.Fatalf("seed %d draw %d: Seed gives %d, NewPCG32 %d", seed, i, got, w)
			}
		}
		h.Next1D() // leave state behind for Reset to clear
		h.Reset(seed)
		var wantH Halton
		wantH.Reset(seed)
		for sp := uint64(0); sp < 4; sp++ {
			h.StartSample(sp)
			wantH.StartSample(sp)
			for d := 0; d < 6; d++ {
				if got, w := h.Next1D(), wantH.Next1D(); got != w {
					t.Fatalf("seed %d sample %d dim %d: reused Halton gives %v, fresh %v", seed, sp, d, got, w)
				}
			}
		}
	}
}
