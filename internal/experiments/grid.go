package experiments

import (
	"context"
	"fmt"

	"repro/internal/cellsched"
	"repro/internal/harness"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/trace"
)

// point is one configuration a figure measures on every bounce: a
// scene under a registry policy with its options.
type point struct {
	key    string // cell-key prefix, e.g. "fig10/conference/drs"
	scene  scene.Benchmark
	policy string // registry name for harness.RunNamedCtx
	opt    harness.Options
}

// run is what the figures read from one bounce's harness.Result. It
// does not keep the Result: Hits holds one entry per ray, and a grid
// holds every bounce of every point until the figure is assembled.
type run struct {
	ok      bool // false: the bounce stream was empty and the cell skipped
	rays    int
	stats   simt.Stats
	eff     float64
	mrays   float64
	reorder reorder.Stats
	// rfShuffle is the register file access share of ray shuffling,
	// l1texMiss the L1Tex miss rate, swapCycles DRS's mean cycles per
	// batched ray swap.
	rfShuffle, l1texMiss, swapCycles float64
}

// simulate runs every point on bounces 1..n as one cellsched grid and
// returns runs[i][b-1] for point i and bounce b. The grid starts with
// one workload-prefetch cell per scene, so with N workers the first N
// scene builds run concurrently instead of every worker blocking on
// the first scene's build; the points follow in order, bounces
// innermost. Cells assemble positionally, so the result is identical
// at any worker count (Options.Parallelism; 0 means GOMAXPROCS).
//
// A nil p.Cache gets a private cache, so each scene is still built
// once per call.
func simulate(ctx context.Context, p Params, scenes []scene.Benchmark, points []point, n int) ([][]run, error) {
	if n < 1 || n > trace.MaxBounces {
		return nil, fmt.Errorf("experiments: bounce count %d out of range [1,%d]", n, trace.MaxBounces)
	}
	if p.Cache == nil {
		p.Cache = NewWorkloadCache()
	}
	grid := make([]cellsched.Cell[run], 0, len(scenes)+len(points)*n)
	for _, b := range scenes {
		grid = append(grid, cellsched.Cell[run]{
			Key: "workload/" + b.String(),
			Run: func() (run, error) {
				_, err := p.Cache.Get(b, p)
				return run{}, err
			},
		})
	}
	for _, pt := range points {
		for bounce := 1; bounce <= n; bounce++ {
			grid = append(grid, cellsched.Cell[run]{
				Key: fmt.Sprintf("%s/B%d", pt.key, bounce),
				Run: func() (run, error) {
					w, err := p.Cache.Get(pt.scene, p)
					if err != nil {
						return run{}, err
					}
					rays := w.BounceRays(bounce, p)
					if len(rays) == 0 {
						return run{}, nil
					}
					res, err := harness.RunNamedCtx(ctx, pt.policy, rays, w.Data, pt.opt)
					if err != nil {
						return run{}, err
					}
					return run{
						ok:         true,
						rays:       res.Rays,
						stats:      res.GPU.Stats,
						eff:        res.SIMDEff,
						mrays:      res.Mrays,
						reorder:    res.Reorder,
						rfShuffle:  res.GPU.RFShuffleShare,
						l1texMiss:  res.GPU.L1TexMissRate,
						swapCycles: res.DRS.MeanSwapCycles(),
					}, nil
				},
			})
		}
	}
	results, err := cellsched.RunCtx(ctx, grid, p.Options.Parallelism)
	if err != nil {
		return nil, err
	}
	results = results[len(scenes):]
	runs := make([][]run, len(points))
	for i := range runs {
		runs[i] = results[i*n : (i+1)*n]
	}
	return runs, nil
}

// merge folds one point's bounces into its overall row. The paper's
// overall performance is total rays over the total cycles of every
// bounce (each bounce is a separate kernel launch), plus any reordering
// cost modeled outside the engine; only the sort policy's stream
// pre-pass charges such a cost.
func merge(runs []run) (st simt.Stats, rays int, re reorder.Stats) {
	var cycles int64
	for _, r := range runs {
		if !r.ok {
			continue
		}
		st.Add(r.stats)
		cycles += r.stats.Cycles
		rays += r.rays
		re.Add(r.reorder)
	}
	st.Cycles = cycles + re.CostCycles
	return st, rays, re
}

// index maps each key to the first cell that has it, for the renderers.
func index[K comparable, C any](cells []C, key func(C) K) map[K]C {
	m := make(map[K]C, len(cells))
	for _, c := range cells {
		k := key(c)
		if _, ok := m[k]; !ok {
			m[k] = c
		}
	}
	return m
}
