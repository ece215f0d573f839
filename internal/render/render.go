// Package render implements the CPU path tracer used to generate the
// paper's workload. Its job here is not image quality: it reproduces the
// paper's methodology of rendering each benchmark scene with path
// tracing (max depth 8, low-discrepancy sampling) and capturing the rays
// of every bounce into per-bounce trace streams that are then fed to the
// simulated GPU ray traversal kernels.
package render

import (
	"fmt"
	"image"
	"image/color"
	"io"
	"math"
	"runtime"
	"sync"

	"repro/internal/bsdf"
	"repro/internal/bvh"
	"repro/internal/camera"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/scene"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Config controls a render.
type Config struct {
	Width, Height   int
	SamplesPerPixel int
	MaxDepth        int  // maximum path depth; the paper uses 8
	CaptureTraces   bool // record per-bounce ray streams
	Workers         int  // parallel workers; 0 = GOMAXPROCS
}

// Result is the output of a render: the image and, if requested, the
// per-bounce ray streams.
type Result struct {
	Image  *image.RGBA
	Traces *trace.Set
	// Film holds linear radiance per pixel for analysis.
	Film []vec.V3
}

// CameraFor returns a reasonable viewpoint for each benchmark scene.
func CameraFor(b scene.Benchmark, width, height int) *camera.Pinhole {
	switch b {
	case scene.ConferenceRoom:
		return camera.New(vec.New(2, 2.2, 1.5), vec.New(12, 1.5, 7), vec.New(0, 1, 0), 60, width, height)
	case scene.FairyForest:
		return camera.New(vec.New(4, 2.5, 4), vec.New(0, 0.8, 0), vec.New(0, 1, 0), 50, width, height)
	case scene.CrytekSponza:
		return camera.New(vec.New(3, 2, 7), vec.New(25, 6, 7), vec.New(0, 1, 0), 65, width, height)
	case scene.Plants:
		return camera.New(vec.New(0, 3, 18), vec.New(0, 1, 0), vec.New(0, 1, 0), 55, width, height)
	default:
		return camera.New(vec.New(0, 1, 5), vec.New(0, 1, 0), vec.New(0, 1, 0), 60, width, height)
	}
}

// Render path-traces scene s (with acceleration structure bv) from
// camera cam and returns the image plus captured traces.
func Render(s *scene.Scene, bv *bvh.BVH, cam *camera.Pinhole, cfg Config) (*Result, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("render: invalid resolution %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.SamplesPerPixel <= 0 {
		return nil, fmt.Errorf("render: samples per pixel must be positive")
	}
	if cfg.MaxDepth <= 0 || cfg.MaxDepth > trace.MaxBounces {
		return nil, fmt.Errorf("render: max depth %d out of range [1,%d]", cfg.MaxDepth, trace.MaxBounces)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	res := &Result{
		Image: image.NewRGBA(image.Rect(0, 0, cfg.Width, cfg.Height)),
		Film:  make([]vec.V3, cfg.Width*cfg.Height),
	}
	if cfg.CaptureTraces {
		res.Traces = &trace.Set{Scene: s.Name}
		for b := 0; b < trace.MaxBounces; b++ {
			res.Traces.Streams[b] = trace.Stream{Scene: s.Name, Bounce: b + 1}
		}
	}

	// Captured rays are buffered per image row and assembled in row
	// order after the workers finish: the stream the simulator consumes
	// must not depend on which worker rendered which rows (worker count
	// follows GOMAXPROCS, and row assignment is scheduling order). Each
	// worker captures into one reusable row scratch, which stops growing
	// once it holds a row's rays (at most Width*SamplesPerPixel per
	// bounce), and keeps each finished row as one exact-size copy.
	var rowRays [][trace.MaxBounces][]geom.Ray
	if cfg.CaptureTraces {
		rowRays = make([][trace.MaxBounces][]geom.Ray, cfg.Height)
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch [trace.MaxBounces][]geom.Ray
			for py := range rows {
				var local *[trace.MaxBounces][]geom.Ray
				if cfg.CaptureTraces {
					for b := range scratch {
						scratch[b] = scratch[b][:0]
					}
					local = &scratch
				}
				for px := 0; px < cfg.Width; px++ {
					pixel := renderPixel(s, bv, cam, cfg, px, py, local)
					res.Film[py*cfg.Width+px] = pixel
				}
				if cfg.CaptureTraces {
					rowRays[py] = keepRow(&scratch)
				}
			}
		}()
	}
	for py := 0; py < cfg.Height; py++ {
		rows <- py
	}
	close(rows)
	wg.Wait()
	if cfg.CaptureTraces {
		// Each stream is allocated once at its exact length, so a
		// cached workload holds no growth slack.
		for b := 0; b < trace.MaxBounces; b++ {
			n := 0
			for py := range rowRays {
				n += len(rowRays[py][b])
			}
			if n == 0 {
				continue
			}
			rays := make([]geom.Ray, 0, n)
			for py := range rowRays {
				rays = append(rays, rowRays[py][b]...)
			}
			res.Traces.Streams[b].Rays = rays
		}
	}

	// Tone map to the output image.
	inv := 1 / float32(cfg.SamplesPerPixel)
	for py := 0; py < cfg.Height; py++ {
		for px := 0; px < cfg.Width; px++ {
			c := res.Film[py*cfg.Width+px].Scale(inv)
			res.Image.SetRGBA(px, py, color.RGBA{
				R: tone(c.X), G: tone(c.Y), B: tone(c.Z), A: 255,
			})
		}
	}
	return res, nil
}

// keepRow copies one row's captured rays into a single exact-size
// allocation, sliced per bounce.
func keepRow(scratch *[trace.MaxBounces][]geom.Ray) (row [trace.MaxBounces][]geom.Ray) {
	n := 0
	for _, rays := range scratch {
		n += len(rays)
	}
	buf := make([]geom.Ray, n)
	for b, rays := range scratch {
		row[b] = buf[:len(rays):len(rays)]
		copy(row[b], rays)
		buf = buf[len(rays):]
	}
	return row
}

// renderPixel traces all samples of one pixel, accumulating radiance
// and recording per-bounce rays into local trace buffers. Both
// generators are locals seeded in place, so a pixel allocates nothing
// beyond the trace buffers' growth.
func renderPixel(s *scene.Scene, bv *bvh.BVH, cam *camera.Pinhole, cfg Config, px, py int, traces *[trace.MaxBounces][]geom.Ray) vec.V3 {
	pixelSeed := uint64(py)*uint64(cfg.Width) + uint64(px)
	var sampler rng.Halton
	sampler.Reset(pixelSeed)
	var rand rng.PCG32
	rand.Seed(pixelSeed, 77)
	var acc vec.V3
	for sp := 0; sp < cfg.SamplesPerPixel; sp++ {
		sampler.StartSample(uint64(sp))
		sx, sy := sampler.Next2D()
		ray := cam.Ray(px, py, sx, sy)
		throughput := vec.Splat(1)
		var radiance vec.V3
		for depth := 1; depth <= cfg.MaxDepth; depth++ {
			if cfg.CaptureTraces {
				traces[depth-1] = append(traces[depth-1], ray)
			}
			hit := bv.Intersect(ray, nil)
			if hit.TriIndex < 0 {
				// Escaped the scene: dim ambient sky term.
				radiance = radiance.Add(throughput.Mul(vec.New(0.03, 0.04, 0.06)))
				break
			}
			tri := s.Tris[hit.TriIndex]
			mat := s.Materials[tri.Material]
			if mat.Kind == scene.Emissive {
				radiance = radiance.Add(throughput.Mul(mat.Emission))
				break
			}
			n := tri.Normal().Norm()
			if n.Dot(ray.Dir) > 0 {
				n = n.Neg()
			}
			u1, u2 := sampler.Next2D()
			// Decorrelate across bounces using the PCG stream once the
			// Halton dimensions run out of quality.
			if depth > 3 {
				u1, u2 = rand.Float32(), rand.Float32()
			}
			sample := bsdf.SampleBSDF(mat, n, ray.Dir, u1, u2)
			if !sample.OK {
				break
			}
			throughput = throughput.Mul(sample.Weight)
			// Russian roulette would bias the per-bounce ray counts the
			// experiments rely on, so paths run to full depth like the
			// paper's fixed 8-bounce workload.
			origin := ray.At(hit.T).Add(n.Scale(1e-3))
			ray = geom.NewRay(origin, sample.Dir)
		}
		acc = acc.Add(radiance)
	}
	return acc
}

func tone(x float32) uint8 {
	// Simple Reinhard + gamma 2.2.
	if x < 0 {
		x = 0
	}
	v := x / (1 + x)
	g := pow32(v, 1/2.2)
	u := int(g*255 + 0.5)
	if u > 255 {
		u = 255
	}
	return uint8(u)
}

func pow32(x, y float32) float32 {
	return float32(math.Pow(float64(x), float64(y)))
}

// WritePPM writes the image in binary PPM format.
func WritePPM(w io.Writer, img *image.RGBA) error {
	b := img.Bounds()
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", b.Dx(), b.Dy()); err != nil {
		return err
	}
	buf := make([]byte, 0, b.Dx()*b.Dy()*3)
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := img.RGBAAt(x, y)
			buf = append(buf, c.R, c.G, c.B)
		}
	}
	_, err := w.Write(buf)
	return err
}
