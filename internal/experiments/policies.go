package experiments

import (
	"context"
	"fmt"

	"repro/internal/cellsched"
	"repro/internal/harness"
	"repro/internal/scene"
	"repro/internal/simt"
)

// PolicyCell is one policy/scene/bounce measurement of the cross-policy
// comparison figure.
type PolicyCell struct {
	Scene  scene.Benchmark
	Policy string
	Bounce int // 0 = overall (all bounces merged)
	Rays   int
	Eff    float64
	Mrays  float64
	// Reorders, RaysMoved, CostCycles are the policy's generic
	// reordering counters (reorder.Stats), comparable across methods.
	Reorders   int64
	RaysMoved  int64
	CostCycles int64
}

// ComparisonPolicies lists the policies the cross-policy figure runs,
// in presentation order: the no-op denominator first, then ahead-of-time
// sorting, then the divergence-time reorderers in rough order of
// hardware ambition.
var ComparisonPolicies = []string{"noop", "sort", "tbc", "dmk", "ser", "drs"}

// policyResult is one (scene, policy, bounce) cell outcome plus the raw
// stats the overall row aggregates from.
type policyResult struct {
	ok    bool // false: the bounce stream was empty, cell skipped
	cell  PolicyCell
	stats simt.Stats
	rays  int
	cost  int64
}

// PoliciesFigure runs the cross-policy comparison: the given policies
// (nil = ComparisonPolicies) over the given scenes (nil = all four), per
// bounce plus overall, with speedups normalized to the explicit no-op
// baseline. Policy configurations come from Params.Options
// (PolicyOverrides or registry defaults), so the same scaled-down
// machine serves every method.
//
// Every (scene, policy, bounce) simulation is an independent scheduler
// cell; the grid runs on Options.Parallelism workers and the rows are
// assembled positionally in the canonical scene/policy/bounce order, so
// the output is byte-identical at any worker count.
func PoliciesFigure(p Params, perBounce int, scenes []scene.Benchmark, policies []string) ([]PolicyCell, error) {
	return PoliciesFigureCtx(context.Background(), p, perBounce, scenes, policies)
}

// PoliciesFigureCtx is PoliciesFigure with cancellation: scheduler
// workers stop claiming cells once ctx is done and in-flight device
// runs abort at their next epoch barrier. An uncancelled call is
// byte-identical to PoliciesFigure.
func PoliciesFigureCtx(ctx context.Context, p Params, perBounce int, scenes []scene.Benchmark, policies []string) ([]PolicyCell, error) {
	if perBounce <= 0 {
		perBounce = 3
	}
	if scenes == nil {
		scenes = scene.Benchmarks
	}
	if policies == nil {
		policies = ComparisonPolicies
	}
	bounces := p.Bounces
	if bounces <= 0 {
		bounces = 8
	}
	p = p.ensureCache()

	grid := workloadCells[policyResult](p, scenes)
	prefetch := len(grid)
	for _, b := range scenes {
		for _, pol := range policies {
			for bounce := 1; bounce <= bounces; bounce++ {
				grid = append(grid, cellsched.Cell[policyResult]{
					Key: fmt.Sprintf("policies/%s/%s/B%d", b, pol, bounce),
					Run: func() (policyResult, error) {
						w, err := p.workload(b)
						if err != nil {
							return policyResult{}, err
						}
						if len(w.BounceRays(bounce, p)) == 0 {
							return policyResult{}, nil
						}
						res, err := w.simulateCtx(ctx, pol, bounce, p)
						if err != nil {
							return policyResult{}, fmt.Errorf("policies %s %s B%d: %w", b, pol, bounce, err)
						}
						return policyResult{
							ok:    true,
							stats: res.GPU.Stats,
							rays:  res.Rays,
							cost:  res.Reorder.CostCycles,
							cell: PolicyCell{
								Scene: b, Policy: pol, Bounce: bounce,
								Rays: res.Rays, Eff: res.SIMDEff, Mrays: res.Mrays,
								Reorders:   res.Reorder.Reorders,
								RaysMoved:  res.Reorder.RaysMoved,
								CostCycles: res.Reorder.CostCycles,
							},
						}, nil
					},
				})
			}
		}
	}
	results, err := cellsched.RunCtx(ctx, grid, p.par())
	if err != nil {
		return nil, err
	}
	results = results[prefetch:]

	var cells []PolicyCell
	i := 0
	for _, b := range scenes {
		for _, pol := range policies {
			var overall simt.Stats
			var cycleSum, costSum int64
			var reorders, moved int64
			overallRays := 0
			for bounce := 1; bounce <= bounces; bounce++ {
				r := results[i]
				i++
				if !r.ok {
					continue
				}
				overall.Add(r.stats)
				// Like Figure 11's overall row: total rays over the total
				// cycles of all bounce launches, plus any modeled
				// out-of-engine reordering cost.
				cycleSum += r.stats.Cycles
				costSum += r.cost
				overallRays += r.rays
				reorders += r.cell.Reorders
				moved += r.cell.RaysMoved
				if bounce <= perBounce {
					cells = append(cells, r.cell)
				}
			}
			overall.Cycles = cycleSum + costSum
			cells = append(cells, PolicyCell{
				Scene: b, Policy: pol, Bounce: 0,
				Rays:       overallRays,
				Eff:        overall.SIMDEfficiency(p.Options.Simt.WarpSize),
				Mrays:      overall.MraysPerSec(int64(overallRays), p.Options.Simt.ClockMHz),
				Reorders:   reorders,
				RaysMoved:  moved,
				CostCycles: costSum,
			})
		}
	}
	return cells, nil
}

// policyKey indexes PolicyCells for the renderer.
type policyKey struct {
	scene  scene.Benchmark
	policy string
	bounce int
}

func indexPolicyCells(cells []PolicyCell) map[policyKey]PolicyCell {
	m := make(map[policyKey]PolicyCell, len(cells))
	for _, c := range cells {
		k := policyKey{c.Scene, c.Policy, c.Bounce}
		if _, ok := m[k]; !ok {
			m[k] = c
		}
	}
	return m
}

// RenderPolicies prints the cross-policy comparison: per scene and
// bounce, each policy's SIMD efficiency, performance, speedup over the
// explicit no-op baseline, and reordering activity.
func RenderPolicies(cells []PolicyCell, perBounce int) string {
	out := "Cross-policy comparison: reordering policies vs the no-op baseline\n"
	header := []string{"scene", "bounce", "policy", "SIMD eff", "Mrays/s", "x noop", "reorders", "rays moved", "cost cyc"}
	idx := indexPolicyCells(cells)
	// Column order follows the cells' first-appearance order, so a
	// restricted -policy run renders exactly what it measured.
	var order []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Policy] {
			seen[c.Policy] = true
			order = append(order, c.Policy)
		}
	}
	var rows [][]string
	for _, b := range scene.Benchmarks {
		for bounce := 1; bounce <= perBounce+1; bounce++ {
			bn := bounce
			label := fmt.Sprintf("B%d", bounce)
			if bounce == perBounce+1 {
				bn = 0
				label = "all"
			}
			noop, haveNoop := idx[policyKey{b, "noop", bn}]
			for _, pol := range order {
				c, ok := idx[policyKey{b, pol, bn}]
				if !ok {
					continue
				}
				speed := "-"
				if haveNoop && noop.Mrays > 0 {
					speed = fmt.Sprintf("%.2fx", c.Mrays/noop.Mrays)
				}
				rows = append(rows, []string{
					b.String(), label, pol,
					pct(c.Eff), f1(c.Mrays), speed,
					fmt.Sprintf("%d", c.Reorders),
					fmt.Sprintf("%d", c.RaysMoved),
					fmt.Sprintf("%d", c.CostCycles),
				})
			}
		}
	}
	return out + table(header, rows)
}

// PolicyCatalog renders the registry as a table: every registered
// policy name with its one-line summary, in registration order.
func PolicyCatalog() string {
	header := []string{"policy", "description"}
	var rows [][]string
	reg := harness.Policies()
	for _, name := range reg.Names() {
		r, _ := reg.Lookup(name)
		rows = append(rows, []string{name, r.Summary})
	}
	return table(header, rows)
}
