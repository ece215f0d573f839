// Package experiments reproduces the paper's evaluation section: each
// table and figure has a runner that builds the workload (procedural
// scene, BVH, path-traced per-bounce ray streams), simulates the
// relevant architectures, and returns the rows the paper reports,
// plus a text renderer that prints them.
//
// Scale: the paper traces 2M rays per bounce from 640x480x64spp renders
// of 174K-1.1M triangle scenes through GPGPU-Sim. Params scales
// everything down so the suite runs in minutes by default; PaperParams
// approaches the original scale for long runs. EXPERIMENTS.md records
// the parameters used for the committed results.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/scene"
	"repro/internal/trace"
)

// Params controls experiment scale.
type Params struct {
	// Tris is the per-scene triangle budget (0 = the paper's full
	// count for that scene).
	Tris int
	// Width, Height, SPP control the render that generates ray traces.
	Width, Height, SPP int
	// MaxRaysPerBounce caps each bounce's stream (0 = no cap). The
	// paper uses 2M rays per bounce for the sensitivity studies.
	MaxRaysPerBounce int
	// Bounces is how many bounces to simulate (per figure this may be
	// further restricted; the paper renders 8).
	Bounces int
	// Options carries the device and architecture configuration,
	// including Parallelism, the cell scheduler's worker count.
	Options harness.Options
	// Cache shares workload builds across runners. nil makes each
	// runner use a private per-call cache (every scene still built once
	// per call); the suite driver passes one shared cache so all
	// figures reuse the same scene builds.
	Cache *WorkloadCache
}

// Scale bounds: the largest workload a caller may ask for. The service
// rejects a JobSpec beyond them and drsbench a flag beyond them, before
// anything is built; past them a render or a scene would tie a worker up
// for hours or ask the host for more memory than it has. PaperParams'
// 640x480x64 render (19.7M samples) is above MaxSampleBudget: it is
// reachable only as a whole, through drsbench -paper.
const (
	// MaxDim bounds the trace render width and height.
	MaxDim = 4096
	// MaxSPP bounds samples per pixel.
	MaxSPP = 256
	// MaxSampleBudget bounds width*height*spp, the number of primary
	// paths the trace render generates.
	MaxSampleBudget = 1 << 24
	// MaxTris bounds the per-scene triangle budget.
	MaxTris = 2_000_000
	// MaxRayCap bounds the per-bounce ray cap.
	MaxRayCap = 64_000_000
)

// DefaultParams returns a configuration that runs the full suite in
// minutes: scaled scenes, quarter-resolution traces, the Table 1 GPU.
func DefaultParams() Params {
	opt := harness.DefaultOptions()
	opt.Simt.MaxCycles = 1 << 28
	return Params{
		Tris:             20000,
		Width:            320,
		Height:           240,
		SPP:              1,
		MaxRaysPerBounce: 0,
		Bounces:          trace.MaxBounces,
		Options:          opt,
	}
}

// PaperParams approaches the paper's scale: full scene budgets,
// 640x480 renders, and 2M-ray bounce caps. Expect long runtimes.
func PaperParams() Params {
	p := DefaultParams()
	p.Tris = 0
	p.Width = 640
	p.Height = 480
	p.SPP = 64
	p.MaxRaysPerBounce = 2_000_000
	return p
}

// Validate rejects parameter combinations that cannot produce a
// meaningful workload: a zero-sized render traces no rays, and negative
// budgets or out-of-range bounce counts are always caller bugs. The
// builders call it up front so a malformed request fails with a named
// parameter instead of an empty-stream error (or a panic) downstream.
func (p Params) Validate() error {
	switch {
	case p.Width <= 0 || p.Height <= 0:
		return fmt.Errorf("experiments: render size %dx%d must be positive in both dimensions", p.Width, p.Height)
	case p.SPP <= 0:
		return fmt.Errorf("experiments: samples per pixel %d must be positive", p.SPP)
	case p.Tris < 0:
		return fmt.Errorf("experiments: triangle budget %d must not be negative (0 selects the paper's full count)", p.Tris)
	case p.MaxRaysPerBounce < 0:
		return fmt.Errorf("experiments: per-bounce ray cap %d must not be negative (0 disables the cap)", p.MaxRaysPerBounce)
	case p.Bounces < 0 || p.Bounces > trace.MaxBounces:
		return fmt.Errorf("experiments: bounce count %d out of range [0,%d]", p.Bounces, trace.MaxBounces)
	}
	return nil
}

// Workload is a scene prepared for simulation.
type Workload struct {
	Benchmark scene.Benchmark
	Scene     *scene.Scene
	BVH       *bvh.BVH
	Data      *kernels.SceneData
	Traces    *trace.Set
}

// BuildWorkload generates the procedural scene, builds its BVH, and
// captures per-bounce ray traces with the CPU path tracer.
func BuildWorkload(b scene.Benchmark, p Params) (*Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := scene.Generate(b, p.Tris)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", b, err)
	}
	cam := render.CameraFor(b, p.Width, p.Height)
	res, err := render.Render(s, bv, cam, render.Config{
		Width:           p.Width,
		Height:          p.Height,
		SamplesPerPixel: p.SPP,
		MaxDepth:        trace.MaxBounces,
		CaptureTraces:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: render %s: %w", b, err)
	}
	return &Workload{
		Benchmark: b,
		Scene:     s,
		BVH:       bv,
		Data:      kernels.NewSceneData(bv),
		Traces:    res.Traces,
	}, nil
}

// BounceRays returns bounce b's ray stream, capped per Params.
func (w *Workload) BounceRays(b int, p Params) []geom.Ray {
	rays := w.Traces.Bounce(b).Rays
	if p.MaxRaysPerBounce > 0 && len(rays) > p.MaxRaysPerBounce {
		rays = rays[:p.MaxRaysPerBounce]
	}
	return rays
}

// table renders rows of columns with a header as aligned text.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, wdt := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wdt))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
