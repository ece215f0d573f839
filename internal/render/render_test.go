package render

import (
	"bytes"
	"testing"

	"repro/internal/bvh"
	"repro/internal/scene"
	"repro/internal/trace"
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
