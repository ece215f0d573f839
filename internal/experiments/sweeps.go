package experiments

import (
	"context"
	"fmt"

	"repro/internal/archconfig"
	"repro/internal/harness"
	"repro/internal/scene"
)

// SweepCell is one (architecture, scheduler, scene, policy) outcome of
// the cross-architecture sweep: all simulated bounces merged, like the
// policies figure's overall rows.
type SweepCell struct {
	Arch   string
	Sched  string
	Scene  scene.Benchmark
	Policy string
	Rays   int
	Cycles int64
	Eff    float64
	Mrays  float64
}

// SweepArchs lists the device models the sweep runs, in presentation
// order: the paper's GTX 780 first, then the two modern shapes.
var SweepArchs = []string{"gtx780", "modern-mid", "modern-big"}

// SweepScheds lists the warp schedulers the sweep crosses with each
// architecture.
var SweepScheds = []string{"gto", "lrr", "wasp"}

// SweepPolicies lists the reordering policies measured under each
// (architecture, scheduler) point: the Aila baseline and DRS, so every
// point yields a drs-over-aila speedup.
var SweepPolicies = []string{"aila", "drs"}

// SweepScenes is the default scene pair: one indoor and one outdoor
// benchmark keeps the full grid (3 archs x 3 schedulers x 2 scenes x
// 2 policies x bounces) tractable at full scale.
var SweepScenes = []scene.Benchmark{scene.ConferenceRoom, scene.CrytekSponza}

// SweepsFigureCtx runs the cross-architecture x scheduler sweep: every
// builtin device model in SweepArchs crossed with every warp scheduler
// in SweepScheds, measuring the Aila baseline and DRS (SweepPolicies)
// on each point and reporting the merged-bounce efficiency, rate, and
// drs-over-aila speedup. Scenes defaults to SweepScenes; bounces <= 0
// selects 4.
//
// Every (arch, sched, scene, policy, bounce) simulation is an
// independent scheduler cell; the grid runs on Options.Parallelism
// workers and rows are assembled positionally in canonical order, so
// the output is byte-identical at any worker count (drsbench -par N).
// Workers stop claiming cells once ctx is done and in-flight device
// runs abort at their next epoch barrier.
func SweepsFigureCtx(ctx context.Context, p Params, bounces int, scenes []scene.Benchmark) ([]SweepCell, error) {
	if bounces <= 0 {
		bounces = 4
	}
	if scenes == nil {
		scenes = SweepScenes
	}
	// A bad builtin name or a config the validator rejects fails the
	// whole figure before any cell runs.
	var points []point
	var cells []SweepCell
	for _, a := range SweepArchs {
		ac, err := archconfig.Builtin(a)
		if err != nil {
			return nil, fmt.Errorf("sweeps: %w", err)
		}
		dev, err := harness.ApplyArch(ac, p.Options)
		if err != nil {
			return nil, fmt.Errorf("sweeps %s: %w", a, err)
		}
		for _, sched := range SweepScheds {
			opt := dev
			if opt.Scheduler, err = harness.Schedulers().New(sched); err != nil {
				return nil, fmt.Errorf("sweeps: %w", err)
			}
			for _, b := range scenes {
				for _, pol := range SweepPolicies {
					points = append(points, point{key: fmt.Sprintf("sweeps/%s/%s/%s/%s", a, sched, b, pol), scene: b, policy: pol, opt: opt})
					cells = append(cells, SweepCell{Arch: a, Sched: sched, Scene: b, Policy: pol})
				}
			}
		}
	}
	runs, err := simulate(ctx, p, scenes, points, bounces)
	if err != nil {
		return nil, err
	}
	// Each cell is its point's overall row, at the architecture's own
	// clock and warp width.
	for i, pt := range points {
		overall, rays, _ := merge(runs[i])
		c := &cells[i]
		c.Rays = rays
		c.Cycles = overall.Cycles
		c.Eff = overall.SIMDEfficiency(pt.opt.Simt.WarpSize)
		c.Mrays = overall.MraysPerSec(int64(rays), pt.opt.Simt.ClockMHz)
	}
	return cells, nil
}

// sweepKey indexes SweepCells for the renderer.
type sweepKey struct {
	arch   string
	sched  string
	scene  scene.Benchmark
	policy string
}

// RenderSweeps prints the sweep: per architecture, scheduler, and
// scene, each policy's merged-bounce SIMD efficiency and rate, with
// DRS's speedup over the Aila baseline on the same point.
func RenderSweeps(cells []SweepCell) string {
	out := "Architecture x scheduler sweep: aila vs drs across device models\n"
	header := []string{"arch", "sched", "scene", "policy", "SIMD eff", "Mrays/s", "x aila"}
	idx := index(cells, func(c SweepCell) sweepKey { return sweepKey{c.Arch, c.Sched, c.Scene, c.Policy} })
	var rows [][]string
	for _, a := range SweepArchs {
		for _, sched := range SweepScheds {
			for _, b := range scene.Benchmarks {
				aila, haveAila := idx[sweepKey{a, sched, b, "aila"}]
				for _, pol := range SweepPolicies {
					c, ok := idx[sweepKey{a, sched, b, pol}]
					if !ok {
						continue
					}
					speed := "-"
					if haveAila && aila.Mrays > 0 {
						speed = fmt.Sprintf("%.2fx", c.Mrays/aila.Mrays)
					}
					rows = append(rows, []string{
						a, sched, b.String(), pol,
						pct(c.Eff), f1(c.Mrays), speed,
					})
				}
			}
		}
	}
	return out + table(header, rows)
}

// ArchCatalog renders the builtin device models as a table: every
// config name with its headline shape and one-line summary, in catalog
// order. The same configs are checked in under testdata/archs/.
func ArchCatalog() string {
	header := []string{"arch", "smx", "warps", "sched", "clock", "l2", "description"}
	var rows [][]string
	for _, name := range archconfig.Names() {
		c, err := archconfig.Builtin(name)
		if err != nil {
			continue
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", c.SMXCount),
			fmt.Sprintf("%dx%d", c.WarpsPerSMX, c.WarpWidth),
			c.Sched,
			fmt.Sprintf("%d MHz", c.ClockMHz),
			fmt.Sprintf("%d KB", c.L2KB),
			c.Summary,
		})
	}
	return table(header, rows)
}

// SchedCatalog renders the warp-scheduler registry as a table: every
// registered scheduler name with its one-line summary, in registration
// order.
func SchedCatalog() string {
	header := []string{"sched", "description"}
	var rows [][]string
	reg := harness.Schedulers()
	for _, name := range reg.Names() {
		r, _ := reg.Lookup(name)
		rows = append(rows, []string{name, r.Summary})
	}
	return table(header, rows)
}
