package render

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/scene"
	"repro/internal/trace"
	"repro/internal/vec"
)

func renderSmall(t testing.TB, b scene.Benchmark, cfg Config) (*scene.Scene, *Result) {
	t.Helper()
	s := scene.Generate(b, 1500)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cam := CameraFor(b, cfg.Width, cfg.Height)
	res, err := Render(s, bv, cam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func TestRenderProducesImageAndTraces(t *testing.T) {
	cfg := Config{Width: 40, Height: 30, SamplesPerPixel: 2, MaxDepth: 8, CaptureTraces: true}
	_, res := renderSmall(t, scene.ConferenceRoom, cfg)
	if res.Image.Bounds().Dx() != 40 || res.Image.Bounds().Dy() != 30 {
		t.Errorf("image dims wrong: %v", res.Image.Bounds())
	}
	if res.Traces == nil {
		t.Fatalf("no traces captured")
	}
	// Bounce 1 has exactly one ray per sample.
	want := 40 * 30 * 2
	if got := len(res.Traces.Bounce(1).Rays); got != want {
		t.Errorf("bounce-1 rays = %d, want %d", got, want)
	}
	// Ray counts per bounce are non-increasing.
	for b := 2; b <= 8; b++ {
		if len(res.Traces.Bounce(b).Rays) > len(res.Traces.Bounce(b-1).Rays) {
			t.Errorf("bounce %d has more rays than bounce %d", b, b-1)
		}
	}
	// In a closed room with full-depth paths, deep bounces still exist.
	if len(res.Traces.Bounce(4).Rays) == 0 {
		t.Errorf("no bounce-4 rays in closed room")
	}
}

func TestRenderConfigValidation(t *testing.T) {
	s := scene.Generate(scene.ConferenceRoom, 1000)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cam := CameraFor(scene.ConferenceRoom, 10, 10)
	bad := []Config{
		{Width: 0, Height: 10, SamplesPerPixel: 1, MaxDepth: 4},
		{Width: 10, Height: 10, SamplesPerPixel: 0, MaxDepth: 4},
		{Width: 10, Height: 10, SamplesPerPixel: 1, MaxDepth: 0},
		{Width: 10, Height: 10, SamplesPerPixel: 1, MaxDepth: 99},
	}
	for i, cfg := range bad {
		if _, err := Render(s, bv, cam, cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestRenderDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := Config{Width: 24, Height: 16, SamplesPerPixel: 2, MaxDepth: 6, CaptureTraces: false, Workers: 1}
	_, res1 := renderSmall(t, scene.FairyForest, cfg)
	cfg.Workers = 4
	_, res2 := renderSmall(t, scene.FairyForest, cfg)
	for i := range res1.Film {
		if res1.Film[i] != res2.Film[i] {
			t.Fatalf("pixel %d differs across worker counts", i)
		}
	}
	// The captured streams are assembled in row order, whichever worker
	// rendered a row.
	var sets [2]bytes.Buffer
	for i, workers := range []int{1, 4} {
		cfg := Config{Width: 24, Height: 16, SamplesPerPixel: 2, MaxDepth: trace.MaxBounces, CaptureTraces: true, Workers: workers}
		_, res := renderSmall(t, scene.ConferenceRoom, cfg)
		if err := res.Traces.WriteSet(&sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sets[0].Bytes(), sets[1].Bytes()) {
		t.Errorf("captured trace sets differ between 1 and 4 workers (%d and %d bytes)", sets[0].Len(), sets[1].Len())
	}
}

func TestSecondaryRaysLessCoherent(t *testing.T) {
	// The paper's core premise (Fig. 2): primary rays are coherent,
	// secondary rays are not.
	cfg := Config{Width: 64, Height: 48, SamplesPerPixel: 1, MaxDepth: 8, CaptureTraces: true}
	_, res := renderSmall(t, scene.ConferenceRoom, cfg)
	c1 := res.Traces.Bounce(1).Coherence(32)
	c3 := res.Traces.Bounce(3).Coherence(32)
	if c1 < 0.95 {
		t.Errorf("primary coherence = %v, want high", c1)
	}
	if c3 > c1-0.2 {
		t.Errorf("bounce-3 coherence %v not much lower than primary %v", c3, c1)
	}
}

func TestRenderImageNotBlack(t *testing.T) {
	cfg := Config{Width: 32, Height: 24, SamplesPerPixel: 4, MaxDepth: 8, CaptureTraces: false}
	_, res := renderSmall(t, scene.ConferenceRoom, cfg)
	lit := 0
	for _, p := range res.Film {
		if max(p.X, p.Y, p.Z) > 0.01 {
			lit++
		}
	}
	if frac := float64(lit) / float64(len(res.Film)); frac < 0.3 {
		t.Errorf("only %.0f%% of pixels lit; renderer or lights broken", frac*100)
	}
}

func TestAllBenchmarksRender(t *testing.T) {
	cfg := Config{Width: 16, Height: 12, SamplesPerPixel: 1, MaxDepth: trace.MaxBounces, CaptureTraces: true}
	for _, b := range scene.Benchmarks {
		_, res := renderSmall(t, b, cfg)
		if res.Traces.TotalRays() < 16*12 {
			t.Errorf("%v: too few rays traced: %d", b, res.Traces.TotalRays())
		}
	}
}

func TestWritePPM(t *testing.T) {
	cfg := Config{Width: 8, Height: 6, SamplesPerPixel: 1, MaxDepth: 2, CaptureTraces: false}
	_, res := renderSmall(t, scene.ConferenceRoom, cfg)
	var buf bytes.Buffer
	if err := WritePPM(&buf, res.Image); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, []byte("P6\n8 6\n255\n")) {
		t.Errorf("bad PPM header: %q", b[:16])
	}
	wantLen := len("P6\n8 6\n255\n") + 8*6*3
	if len(b) != wantLen {
		t.Errorf("PPM length = %d, want %d", len(b), wantLen)
	}
}

// TestRenderPixelAllocatesNothing pins renderPixel's generators to the
// stack: without trace capture a pixel makes no heap allocation.
func TestRenderPixelAllocatesNothing(t *testing.T) {
	s := scene.Generate(scene.ConferenceRoom, 1500)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Width: 16, Height: 16, SamplesPerPixel: 2, MaxDepth: trace.MaxBounces}
	cam := CameraFor(scene.ConferenceRoom, cfg.Width, cfg.Height)
	px := 0
	if avg := testing.AllocsPerRun(64, func() {
		renderPixel(s, bv, cam, cfg, px%cfg.Width, px/cfg.Width%cfg.Height, nil)
		px++
	}); avg != 0 {
		t.Errorf("renderPixel allocates %.1f times per pixel, want 0", avg)
	}
}

// TestCaptureGolden pins the captured trace sets of all four scenes at
// test scale (1500-triangle budget, 32x24, depth 8) at 1 and 2 samples
// per pixel: the SHA-256 of each set's WriteSet encoding and its ray
// count. The digests were recorded with a capture that grew every
// buffer by append and a closest-hit loop with a per-node closure, so
// they hold the row scratch, the exact-size streams and the inline
// traversal to the rays those produced.
func TestCaptureGolden(t *testing.T) {
	want := []struct {
		spp    int
		bench  scene.Benchmark
		rays   int
		digest string
	}{
		{1, scene.ConferenceRoom, 5584, "5f0ebd7295aaef48f1400fae34db8b1033bd778b721826c66893a6e9331175ce"},
		{1, scene.FairyForest, 1414, "63a8b00f99b6b11ed36e16ecf4cc76b400254b03b7df40770a5e82a5716f3a6c"},
		{1, scene.CrytekSponza, 5718, "2d8544cb8f7dc3dafc97d1c2677b90b87f4e52c56626eab1f43eb2f16714551d"},
		{1, scene.Plants, 1198, "0d835137f5459c39b056388b41f9ed2b2480106a9859fbbf0e547d73cb5a0c6d"},
		{2, scene.ConferenceRoom, 11201, "e20934341ca4433fbc0dd830f0db9935c77850fdef591469c918fe16d8640263"},
		{2, scene.FairyForest, 2828, "eb407575a940bd5ae1ce4de2f87552527e9823bb19693e04ecd2badffa8f628b"},
		{2, scene.CrytekSponza, 11361, "ce5698d6e55f61154db6bf7bc514cc28a7f5cc841ca135dcd5fa185b09816a80"},
		{2, scene.Plants, 2406, "343ab76135324563071993d7f05eb641453fdc3f34e10d9b2cff61249701939f"},
	}
	for _, w := range want {
		cfg := Config{Width: 32, Height: 24, SamplesPerPixel: w.spp, MaxDepth: trace.MaxBounces, CaptureTraces: true}
		_, res := renderSmall(t, w.bench, cfg)
		h := sha256.New()
		if err := res.Traces.WriteSet(h); err != nil {
			t.Fatal(err)
		}
		if got, n := hex.EncodeToString(h.Sum(nil)), res.Traces.TotalRays(); got != w.digest || n != w.rays {
			t.Errorf("%v at spp %d: %d rays with digest %s; want %d rays, %s", w.bench, w.spp, n, got, w.rays, w.digest)
		}
	}
}

// TestCaptureAllocatesItsOutput pins what a captured render allocates:
// each finished row is kept as one exact-size copy of the worker's row
// scratch, and each stream is allocated once at its exact length, so
// the rays cost twice their bytes. The rest is the film, the image,
// the worker's row scratch (append's growth to at most Width*SPP rays
// per bounce, under 6x that), the allocator's rounding of the row
// copies (a size class is at most 1/8 above its request) and a fixed
// slack. No stream keeps growth slack.
func TestCaptureAllocatesItsOutput(t *testing.T) {
	s := scene.Generate(scene.ConferenceRoom, 1500)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Width: 64, Height: 48, SamplesPerPixel: 2, MaxDepth: trace.MaxBounces, CaptureTraces: true, Workers: 1}
	cam := CameraFor(scene.ConferenceRoom, cfg.Width, cfg.Height)
	var res *Result
	alloc := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if res, err = Render(s, bv, cam, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	const raySize = uint64(unsafe.Sizeof(geom.Ray{}))
	pixels := uint64(cfg.Width * cfg.Height)
	rays := uint64(res.Traces.TotalRays())
	scratch := uint64(cfg.Workers*cfg.MaxDepth*cfg.Width*cfg.SamplesPerPixel) * 6 * raySize
	film := pixels * uint64(unsafe.Sizeof(vec.V3{}))
	image := pixels * 4
	const slack = 64 << 10
	rounding := rays * raySize / 8
	if limit := 2*rays*raySize + scratch + film + image + rounding + slack; alloc > limit {
		t.Errorf("a render capturing %d rays (%d B) allocates %d B, above %d B", rays, rays*raySize, alloc, limit)
	}
	for b, st := range res.Traces.Streams {
		if cap(st.Rays) != len(st.Rays) {
			t.Errorf("bounce %d stream: %d rays with capacity %d", b+1, len(st.Rays), cap(st.Rays))
		}
	}
	t.Logf("%d rays (%d B); render allocates %d B", rays, rays*raySize, alloc)
}
