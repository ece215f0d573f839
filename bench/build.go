package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/bvh"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/render"
	"repro/internal/scene"
	"repro/internal/trace"
)

// traceDigest hashes a trace set's WriteSet encoding.
func traceDigest(s *trace.Set) (string, error) {
	h := sha256.New()
	if err := s.WriteSet(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// geometryDigest hashes a scene's triangles and its BVH's nodes and
// triangle order.
func geometryDigest(tris []geom.Triangle, bv *bvh.BVH) string {
	h := sha256.New()
	// A hash.Hash never returns a write error.
	binary.Write(h, binary.LittleEndian, tris)
	binary.Write(h, binary.LittleEndian, bv.Nodes)
	binary.Write(h, binary.LittleEndian, bv.TriIndex)
	return hex.EncodeToString(h.Sum(nil))
}

// buildLayers accumulates the workload-build layer over traced build
// passes: an op of build, a set-up pass of fig10-grid and modern-big.
type buildLayers struct {
	nodes, rays int64
}

// load gets b's workload through get (BuildWorkload or a cache) inside an
// experiments.build span. When traced, it then rebuilds the workload one
// layer at a time (pipeline).
func (l *buildLayers) load(tr *tracer, parent, op int, b scene.Benchmark, p experiments.Params,
	get func(scene.Benchmark, experiments.Params) (*experiments.Workload, error)) (*experiments.Workload, error) {
	var w *experiments.Workload
	err := tr.do("experiments.build", parent, op, func(int) (err error) {
		w, err = get(b, p)
		return err
	})
	if err != nil || tr == nil {
		return w, err
	}
	return w, l.pipeline(tr, parent, op, b, p, w.Traces)
}

// pipeline composes BuildWorkload's layers as separate spans — scene
// generation, the binned-SAH BVH, the LBVH alternative (timed only),
// the path-traced capture and the kernels' scene layout — and checks
// that the composed trace set is byte-equal to want.
func (l *buildLayers) pipeline(tr *tracer, parent, op int, b scene.Benchmark, p experiments.Params, want *trace.Set) error {
	var s *scene.Scene
	var bv *bvh.BVH
	var res *render.Result
	steps := []struct {
		name string
		fn   func() error
	}{
		{"scene.generate", func() error { s = scene.Generate(b, p.Tris); return nil }},
		{"bvh.build", func() (err error) { bv, err = bvh.Build(s.Tris, bvh.DefaultOptions()); return err }},
		{"bvh.lbvh", func() error { _, err := bvh.BuildLBVH(s.Tris, bvh.DefaultOptions().MaxLeafSize); return err }},
		{"render.render", func() (err error) {
			res, err = render.Render(s, bv, render.CameraFor(b, p.Width, p.Height), render.Config{
				Width: p.Width, Height: p.Height, SamplesPerPixel: p.SPP,
				MaxDepth: trace.MaxBounces, CaptureTraces: true,
			})
			return err
		}},
		{"kernels.scenedata", func() error { kernels.NewSceneData(bv); return nil }},
	}
	for _, st := range steps {
		if err := tr.do(st.name, parent, op, func(int) error { return st.fn() }); err != nil {
			return fmt.Errorf("%s %s: %w", st.name, b, err)
		}
	}
	got, err := traceDigest(res.Traces)
	if err != nil {
		return err
	}
	if exp, err := traceDigest(want); err != nil || got != exp {
		return fmt.Errorf("%s: composed pipeline traces %s differ from BuildWorkload's %s (%v)", b, got, exp, err)
	}
	l.nodes += int64(len(bv.Nodes))
	l.rays += int64(res.Traces.TotalRays())
	return nil
}

// metrics reports each layer's time per build pass.
func (l *buildLayers) metrics(spans []span) []metric {
	passes := float64(len(perOpMS(spans, "experiments.build")))
	pass := func(name, span string) metric { return timing(name, "ms", perOpMS(spans, span)) }
	return []metric{
		pass("scene.generate_ms", "scene.generate"),
		pass("bvh.build_ms", "bvh.build"),
		pass("bvh.lbvh_ms", "bvh.lbvh"),
		pass("render.render_ms", "render.render"),
		pass("kernels.scenedata_ms", "kernels.scenedata"),
		pass("experiments.build_ms", "experiments.build"),
		{Name: "bvh.nodes", Value: ratio(float64(l.nodes), passes), Unit: "count"},
		{Name: "render.rays_captured", Value: ratio(float64(l.rays), passes), Unit: "count"},
	}
}

// buildBench builds all four scenes' workloads from fresh state each op,
// at the scale of the committed results: no simulation at all.
type buildBench struct {
	cfg      config
	p        experiments.Params
	geometry map[scene.Benchmark]string // geometry digests of the set-up's scenes
	ref      map[scene.Benchmark]string // trace digests of the warm-up op
	build    buildLayers
}

// newBuild generates and validates the four procedural scenes and builds
// their BVHs: every op's workloads must hold exactly this geometry.
func newBuild(cfg config, _ *tracer, _, _ int) (instance, error) {
	b := &buildBench{cfg: cfg, p: cfg.buildParams(), geometry: make(map[scene.Benchmark]string)}
	for _, sc := range scene.Benchmarks {
		s := scene.Generate(sc, b.p.Tris)
		if err := s.Validate(); err != nil {
			return nil, err
		}
		bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
		if err != nil {
			return nil, err
		}
		b.geometry[sc] = geometryDigest(s.Tris, bv)
	}
	return b, nil
}

func (b *buildBench) close() error { return nil }

// op builds every scene, one at a time so only one workload is live,
// and returns the trace digests.
func (b *buildBench) op(tr *tracer, op int) (map[scene.Benchmark]string, sample, error) {
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	digests := make(map[scene.Benchmark]string)
	var total sample
	for _, sc := range scene.Benchmarks {
		var w *experiments.Workload
		s, err := measure(func() error {
			return tr.do("experiments.build", root, op, func(int) (err error) {
				w, err = experiments.BuildWorkload(sc, b.p)
				return err
			})
		})
		total.secs += s.secs
		total.allocMiB += s.allocMiB
		if err != nil {
			return nil, total, err
		}
		if d := geometryDigest(w.Scene.Tris, w.BVH); d != b.geometry[sc] {
			return nil, total, fmt.Errorf("build %s: scene and BVH %s differ from the set-up's %s", sc, d, b.geometry[sc])
		}
		if digests[sc], err = traceDigest(w.Traces); err != nil {
			return nil, total, err
		}
		if tr != nil {
			if err := b.build.pipeline(tr, root, op, sc, b.p, w.Traces); err != nil {
				return nil, total, err
			}
		}
	}
	return digests, total, nil
}

func (b *buildBench) warm() error {
	digests, _, err := b.op(nil, 0)
	if err != nil {
		return err
	}
	if b.cfg.pins != nil {
		for _, sc := range scene.Benchmarks {
			if digests[sc] != b.cfg.pins.BuildTraces[sc.String()] {
				return fmt.Errorf("build %s: trace digest %s, pinned %s", sc, digests[sc], b.cfg.pins.BuildTraces[sc.String()])
			}
		}
	}
	b.ref = digests
	return nil
}

func (b *buildBench) run(deadline time.Time, tr *tracer) *phase {
	return loop(deadline, func(op int) (sample, error) {
		digests, s, err := b.op(tr, op)
		for _, sc := range scene.Benchmarks {
			if err == nil && digests[sc] != b.ref[sc] {
				err = fmt.Errorf("build %s: trace digest %s, warm-up had %s", sc, digests[sc], b.ref[sc])
			}
		}
		return s, err
	})
}

func (b *buildBench) layers(_ *phase, spans []span) []metric { return b.build.metrics(spans) }
