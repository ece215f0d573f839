package service

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/archconfig"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/scene"
)

// params maps a normalized spec onto experiment parameters, pointing
// every job at the process-wide workload cache so identical scenes
// build once across the daemon's lifetime. The spec was validated, so
// its device-model and scheduler names resolve; an error here means the
// catalog changed under a persisted spec and is surfaced, not panicked.
func (s *Service) params(spec *JobSpec) (experiments.Params, error) {
	p := experiments.DefaultParams()
	p.Tris = spec.Tris
	p.Width = spec.Width
	p.Height = spec.Height
	p.SPP = spec.SPP
	p.MaxRaysPerBounce = spec.MaxRaysPerBounce
	p.Bounces = spec.Bounces
	p.Options.Parallelism = spec.Parallelism
	p.Cache = s.cache
	if spec.ArchConfig != "" {
		ac, err := archconfig.Builtin(spec.ArchConfig)
		if err != nil {
			return p, &SpecError{Field: "arch_config", Reason: err.Error()}
		}
		p.Options, err = harness.ApplyArch(ac, p.Options)
		if err != nil {
			return p, &SpecError{Field: "arch_config", Reason: err.Error()}
		}
	}
	if spec.Sched != "" {
		sched, err := harness.Schedulers().New(spec.Sched)
		if err != nil {
			return p, &SpecError{Field: "sched", Reason: err.Error()}
		}
		p.Options.Scheduler = sched
	}
	return p, nil
}

// scenesOf resolves a grid job's scene selection: one named benchmark,
// or all four when the spec leaves it empty. The spec was validated,
// so the name resolves.
func scenesOf(spec *JobSpec) ([]scene.Benchmark, error) {
	if spec.Scene == "" {
		return nil, nil // runners default to scene.Benchmarks
	}
	b, err := ParseScene(spec.Scene)
	if err != nil {
		return nil, &SpecError{Field: "scene", Reason: err.Error()}
	}
	return []scene.Benchmark{b}, nil
}

// runArtifact is the result body of a run job. Field order is fixed —
// json.Marshal of a struct is deterministic — and nothing in it
// depends on wall clock, queue position or worker identity, so equal
// specs produce equal bytes.
type runArtifact struct {
	ID            string          `json:"id"`
	Kind          string          `json:"kind"`
	Scene         string          `json:"scene"`
	Arch          string          `json:"arch"`
	Policy        string          `json:"policy,omitempty"`
	ArchConfig    string          `json:"arch_config,omitempty"`
	Sched         string          `json:"sched,omitempty"`
	Bounce        int             `json:"bounce"`
	Rays          int             `json:"rays"`
	Cycles        int64           `json:"cycles"`
	WarpInstrs    int64           `json:"warp_instrs"`
	Mrays         float64         `json:"mrays"`
	SIMDEff       float64         `json:"simd_eff"`
	Epochs        int             `json:"epochs,omitempty"`
	EpochsDropped int64           `json:"epochs_dropped,omitempty"`
	Metrics       json.RawMessage `json:"metrics,omitempty"`
}

// gridArtifact is the result body of a fig10 or table2 job: the raw
// cells plus the paper-layout text renders.
type gridArtifact struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	ArchConfig string `json:"arch_config,omitempty"`
	Sched      string `json:"sched,omitempty"`
	Cells      any    `json:"cells"`
	Text       string `json:"text"`
}

// run is the built-in Runner: it executes a validated spec against the
// experiment runners and encodes the deterministic result artifact.
func (s *Service) run(ctx context.Context, spec *JobSpec, progress func(cycle, epochs int64)) ([]byte, error) {
	p, err := s.params(spec)
	if err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindRun:
		return s.runSingle(ctx, spec, p, progress)
	case KindFig10:
		scenes, err := scenesOf(spec)
		if err != nil {
			return nil, err
		}
		cells, err := experiments.Figure10Ctx(ctx, p, spec.CmpBounces, scenes)
		if err != nil {
			return nil, err
		}
		text := experiments.RenderFigure10(cells, spec.CmpBounces) + "\n" +
			experiments.RenderFigure11(cells, spec.CmpBounces)
		return marshalArtifact(gridArtifact{ID: spec.ID(), Kind: spec.Kind, ArchConfig: spec.ArchConfig, Sched: spec.Sched, Cells: cells, Text: text})
	case KindTable2:
		scenes, err := scenesOf(spec)
		if err != nil {
			return nil, err
		}
		cells, err := experiments.Table2Ctx(ctx, p, spec.SweepBounces, scenes)
		if err != nil {
			return nil, err
		}
		return marshalArtifact(gridArtifact{
			ID: spec.ID(), Kind: spec.Kind, ArchConfig: spec.ArchConfig, Sched: spec.Sched, Cells: cells,
			Text: experiments.RenderTable2(cells, spec.SweepBounces),
		})
	default:
		return nil, &SpecError{Field: "kind", Reason: fmt.Sprintf("unknown kind %q", spec.Kind)}
	}
}

// runSingle executes a single-device run job: one scene, one
// architecture, one bounce stream, optionally observed. Observed jobs
// feed the progress stream from the engine's epoch barriers, thinned
// to one event per Config.EpochEventEvery barriers.
func (s *Service) runSingle(ctx context.Context, spec *JobSpec, p experiments.Params, progress func(cycle, epochs int64)) ([]byte, error) {
	b, err := ParseScene(spec.Scene)
	if err != nil {
		return nil, &SpecError{Field: "scene", Reason: err.Error()}
	}
	// The spec was validated, so the effective policy name — the policy
	// field, or the legacy arch spelling — resolves in the registry.
	name := spec.PolicyName()
	if _, err := harness.Policies().New(name); err != nil {
		return nil, &SpecError{Field: "policy", Reason: err.Error()}
	}
	w, err := s.cache.Get(b, p)
	if err != nil {
		return nil, err
	}
	rays := w.BounceRays(spec.Bounce, p)
	if len(rays) == 0 {
		return nil, fmt.Errorf("service: %s bounce %d has no rays at this scale", b, spec.Bounce)
	}
	opt := p.Options
	opt.Observe = spec.Observe
	if spec.Observe && progress != nil {
		every := s.cfg.EpochEventEvery
		var epochs int64 // engine goroutine only; barriers serialize it
		opt.OnEpochSample = func(cycle int64, _ []int64) {
			epochs++
			if epochs%every == 0 {
				progress(cycle, epochs)
			}
		}
	}
	res, err := harness.RunNamedCtx(ctx, name, rays, w.Data, opt)
	if err != nil {
		return nil, err
	}
	art := runArtifact{
		ID:         spec.ID(),
		Kind:       spec.Kind,
		Scene:      spec.Scene,
		Arch:       spec.Arch,
		Policy:     spec.Policy,
		ArchConfig: spec.ArchConfig,
		Sched:      spec.Sched,
		Bounce:     spec.Bounce,
		Rays:       res.Rays,
		Cycles:     res.GPU.Stats.Cycles,
		WarpInstrs: res.GPU.Stats.WarpInstrs,
		Mrays:      res.Mrays,
		SIMDEff:    res.SIMDEff,
	}
	if res.Metrics != nil {
		snap, err := res.Metrics.MarshalJSON()
		if err != nil {
			return nil, err
		}
		art.Metrics = snap
	}
	if res.Series != nil {
		art.Epochs = res.Series.Len()
		art.EpochsDropped = res.Series.Dropped()
	}
	return marshalArtifact(art)
}

// marshalArtifact encodes a result body. Artifacts are compared
// byte-for-byte by the determinism tests and the CI smoke run, so the
// encoding must stay canonical: plain Marshal of fixed-order structs,
// no maps, no timestamps.
func marshalArtifact(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result artifact: %w", err)
	}
	return append(data, '\n'), nil
}
