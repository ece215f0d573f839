package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/scene"
	"repro/internal/service"
)

// pinnedMisses is how many of drsd-mix's first fresh specs, for seed 1,
// have their artifact digests pinned.
const pinnedMisses = 64

// writePins computes every pinned output of the full-scale workloads
// from an untraced run and writes them as pinned.json. Regenerate the
// file only after a deliberate change to simulated results.
func writePins(out io.Writer, cfg config) error {
	cfg.seed = 1
	var p pins
	g, err := newFig10Grid(cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	if _, p.Fig10Figure, _, err = g.(*fig10Grid).grid(); err != nil {
		return err
	}
	m, err := newModernBig(cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	if p.ModernBig, _, err = m.(*modernBig).pair(nil, 0); err != nil {
		return err
	}
	b, err := newBuild(cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	traces, _, err := b.(*buildBench).op(nil, 0)
	if err != nil {
		return err
	}
	p.BuildTraces = make(map[string]string)
	for _, sc := range scene.Benchmarks {
		p.BuildTraces[sc.String()] = traces[sc]
	}
	if p.DrsdArtifacts, err = drsdPins(cfg); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// drsdPins runs the first fresh specs of the seed-1 sequence on a bare
// in-process service: artifact bytes are a pure function of the spec, so
// they are the bytes the HTTP stacks must serve.
func drsdPins(cfg config) (map[string]string, error) {
	svc := service.New(service.Config{Workers: cfg.nproc})
	defer svc.Drain(context.Background())
	out := make(map[string]string)
	for _, spec := range mixSequence(cfg)[:pinnedMisses] {
		j, _, err := svc.Submit(spec, true)
		if err != nil {
			return nil, err
		}
		select {
		case <-j.Done():
		case <-time.After(10 * time.Minute):
			return nil, fmt.Errorf("spec %s did not finish", spec.ID()[:12])
		}
		body, msg := j.Artifact()
		if j.State() != service.StateDone {
			return nil, fmt.Errorf("spec %s: %s", spec.ID()[:12], msg)
		}
		out[spec.ID()] = sha256Hex(body)
	}
	return out, nil
}
