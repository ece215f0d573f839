package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/archconfig"
	"repro/internal/cellsched"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/scene"
)

// outcome is the deterministic part of one device run: what the
// correctness checks compare between ops, between the traced and the
// untraced run, and against the pinned values.
type outcome struct {
	Cycles     int64  `json:"cycles"`
	WarpInstrs int64  `json:"warp_instrs"`
	Hits       string `json:"hits_sha256"`
}

func outcomeOf(res *harness.Result) outcome {
	return outcome{Cycles: res.GPU.Stats.Cycles, WarpInstrs: res.GPU.Stats.WarpInstrs, Hits: hitsDigest(res.Hits)}
}

// hitsDigest hashes every committed hit (distance, barycentrics,
// triangle) in input order.
func hitsDigest(hits []geom.Hit) string {
	h := sha256.New()
	var buf [16]byte
	for _, x := range hits {
		binary.LittleEndian.PutUint32(buf[0:], math.Float32bits(x.T))
		binary.LittleEndian.PutUint32(buf[4:], math.Float32bits(x.U))
		binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(x.V))
		binary.LittleEndian.PutUint32(buf[12:], uint32(x.TriIndex))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simParams is the conference workload fig10-grid and modern-big share.
func (c config) simParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Tris, p.Width, p.Height, p.SPP, p.Bounces = c.tris, c.width, c.height, 1, c.bounces
	p.Options.Parallelism = c.nproc
	return p
}

// simLayers accumulates what traced device runs report. Device runs of
// one op may run concurrently (grid cells), so record locks.
type simLayers struct {
	mu                                sync.Mutex
	epochUS                           []float64
	smx, warpSize                     int
	runs                              int
	epochs, cycles, instrs, active    int64
	runNS                             float64
	l1tAcc, l1tMiss, l2Acc, l2Miss    int64
	l2QueueMax                        int64
	coreMoved, ctrlStalls, ctrlInstrs int64
	reorderMoved                      int64
}

// run is one traced device run: harness.RunNamedCtx with the metrics
// layer attached and an epoch hook that timestamps every barrier. The
// hook gives the run's spans: harness.setup (call to the first barrier,
// so it includes the first epoch), simt.epochs (first to last barrier)
// and harness.assemble (last barrier to return). With epochSpans every
// barrier-to-barrier interval also becomes a simt.epoch span.
func (l *simLayers) run(ctx context.Context, tr *tracer, parent, op int, epochSpans bool,
	policy string, rays []geom.Ray, data *kernels.SceneData, opt harness.Options) (*harness.Result, error) {
	var stamps []time.Time // written by the engine goroutine only, read after the run
	opt.Observe = true
	opt.OnEpochSample = func(int64, []int64) { stamps = append(stamps, time.Now()) }
	start := time.Now()
	res, err := harness.RunNamedCtx(ctx, policy, rays, data, opt)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	id := tr.add("harness.run."+policy, parent, op, start, end)
	if n := len(stamps); n > 0 {
		tr.add("harness.setup", id, op, start, stamps[0])
		sim := tr.add("simt.epochs", id, op, stamps[0], stamps[n-1])
		tr.add("harness.assemble", id, op, stamps[n-1], end)
		for i := 1; epochSpans && i < n; i++ {
			tr.add("simt.epoch", sim, op, stamps[i-1], stamps[i])
		}
	}
	l.record(policy, res, stamps, end.Sub(start))
	return res, nil
}

func (l *simLayers) record(policy string, res *harness.Result, stamps []time.Time, wall time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := res.GPU.Stats
	l.runs++
	l.smx, l.warpSize = res.Config.NumSMX, res.Config.WarpSize
	for i := 1; i < len(stamps); i++ {
		l.epochUS = append(l.epochUS, float64(stamps[i].Sub(stamps[i-1]))/float64(time.Microsecond))
	}
	l.epochs += int64(len(stamps))
	l.cycles += st.Cycles
	l.instrs += st.WarpInstrs
	l.active += st.ActiveThreadSum
	l.runNS += float64(wall.Nanoseconds())
	snap := res.Metrics
	for i, p := range snap.Paths {
		switch {
		case strings.HasSuffix(p, "/l1t/accesses"):
			l.l1tAcc += snap.Values[i]
		case strings.HasSuffix(p, "/l1t/misses"):
			l.l1tMiss += snap.Values[i]
		}
	}
	acc, _ := snap.Get("l2/accesses")
	miss, _ := snap.Get("l2/misses")
	l.l2Acc += acc
	l.l2Miss += miss
	se := res.Series
	for c, name := range se.Columns() {
		if !strings.HasSuffix(name, "/l2_queue") {
			continue
		}
		for i := 0; i < se.Len(); i++ {
			_, row := se.At(i)
			l.l2QueueMax = max(l.l2QueueMax, row[c])
		}
	}
	l.coreMoved += res.DRS.RaysMoved
	l.reorderMoved += res.Reorder.RaysMoved
	if policy == "drs" {
		l.ctrlStalls += st.CtrlStalls
		l.ctrlInstrs += st.CtrlInstrs
	}
}

// metrics reports the device layers over ops traced ops. Per-op counts
// are deterministic: a host-speed change must not move them.
func (l *simLayers) metrics(ops int, spans []span, opAllocMiB float64) []metric {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := float64(max(ops, 1))
	run := func(p string) []float64 { return spanMS(spans, "harness.run."+p) }
	return []metric{
		timing("harness.setup_ms_p50", "ms", spanMS(spans, "harness.setup")),
		timing("harness.assemble_ms_p50", "ms", spanMS(spans, "harness.assemble")),
		{Name: "harness.alloc_mib_per_run", Value: ratio(opAllocMiB, float64(l.runs)), Unit: "MiB", N: l.runs},
		timing("harness.run_ms.aila", "ms", run("aila")),
		timing("harness.run_ms.dmk", "ms", run("dmk")),
		timing("harness.run_ms.tbc", "ms", run("tbc")),
		timing("harness.run_ms.drs", "ms", run("drs")),
		{Name: "simt.smx", Value: float64(l.smx), Unit: "count"},
		{Name: "simt.epochs", Value: float64(l.epochs) / n, Unit: "count"},
		timing("simt.epoch_us_p50", "us", l.epochUS),
		tail("simt.epoch_us_p99", "us", l.epochUS, 0.99),
		{Name: "simt.sim_cycles", Value: float64(l.cycles) / n, Unit: "cycles"},
		{Name: "simt.warp_instrs", Value: float64(l.instrs) / n, Unit: "count"},
		{Name: "simt.host_ns_per_warp_instr", Value: ratio(l.runNS, float64(l.instrs)), Unit: "ns", N: l.runs},
		{Name: "simt.simd_eff", Value: ratio(float64(l.active), float64(l.instrs)*float64(l.warpSize)), Unit: "ratio"},
		{Name: "memsys.l1tex_miss_rate", Value: ratio(float64(l.l1tMiss), float64(l.l1tAcc)), Unit: "ratio"},
		{Name: "memsys.l2_accesses", Value: float64(l.l2Acc) / n, Unit: "count"},
		{Name: "memsys.l2_miss_rate", Value: ratio(float64(l.l2Miss), float64(l.l2Acc)), Unit: "ratio"},
		{Name: "memsys.l2_queue_max", Value: float64(l.l2QueueMax), Unit: "count"},
		{Name: "core.rays_moved", Value: float64(l.coreMoved) / n, Unit: "count"},
		{Name: "core.rdctrl_stall_rate", Value: ratio(float64(l.ctrlStalls), float64(l.ctrlStalls+l.ctrlInstrs)), Unit: "ratio"},
		{Name: "reorder.rays_moved", Value: float64(l.reorderMoved) / n, Unit: "count"},
		{Name: "policy.drs_host_cost_x", Value: ratio(median(run("drs")), median(run("aila"))), Unit: "x", N: len(run("drs"))},
	}
}

// spanMS returns the durations, in ms, of every span with this name.
func spanMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// perOpMS sums the named spans' durations per op and returns one total
// per op that has any.
func perOpMS(spans []span, name string) []float64 {
	sums := make(map[int]float64)
	var ops []int
	for _, s := range spans {
		if s.name != name {
			continue
		}
		if _, ok := sums[s.op]; !ok {
			ops = append(ops, s.op)
		}
		sums[s.op] += ms(s.end - s.start)
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// --- fig10-grid -----------------------------------------------------------

// fig10Grid is the paper's headline comparison: the Figure 10/11 grid of
// Aila, DMK, TBC and DRS over the conference room's bounces, one device
// run per cell, spread over nproc cellsched workers.
type fig10Grid struct {
	cfg    config
	p      experiments.Params
	cache  *experiments.WorkloadCache
	build  buildLayers
	sim    simLayers
	cells  cellLayers
	cache0 cellsched.CacheStats            // cache traffic before the traced ops
	figure string                          // figure digest of the warm-up op
	ref    map[string]experiments.ArchCell // warm-up per-bounce cells by cellKey
}

var conference = []scene.Benchmark{scene.ConferenceRoom}

func cellKey(policy string, bounce int) string { return fmt.Sprintf("%s/B%d", policy, bounce) }

func newFig10Grid(cfg config, tr *tracer, parent, op int) (instance, error) {
	g := &fig10Grid{cfg: cfg, p: cfg.simParams(), cache: experiments.NewWorkloadCache()}
	g.p.Cache = g.cache
	_, err := g.build.load(tr, parent, op, scene.ConferenceRoom, g.p, g.cache.Get)
	return g, err
}

func (g *fig10Grid) close() error { return nil }

// grid runs the figure through experiments.Figure10Ctx and hashes its
// rendered text.
func (g *fig10Grid) grid() ([]experiments.ArchCell, string, sample, error) {
	var cells []experiments.ArchCell
	s, err := measure(func() (err error) {
		cells, err = experiments.Figure10Ctx(context.Background(), g.p, g.p.Bounces, conference)
		return err
	})
	if err != nil {
		return nil, "", s, err
	}
	text := experiments.RenderFigure10(cells, g.p.Bounces) + "\n" + experiments.RenderFigure11(cells, g.p.Bounces)
	sum := sha256.Sum256([]byte(text))
	return cells, hex.EncodeToString(sum[:]), s, nil
}

func (g *fig10Grid) warm() error {
	cells, digest, _, err := g.grid()
	if err != nil {
		return err
	}
	if g.cfg.pins != nil && digest != g.cfg.pins.Fig10Figure {
		return fmt.Errorf("fig10-grid: figure digest %s, pinned %s", digest, g.cfg.pins.Fig10Figure)
	}
	g.figure = digest
	g.ref = make(map[string]experiments.ArchCell)
	for _, c := range cells {
		if c.Bounce > 0 {
			g.ref[cellKey(c.Arch.String(), c.Bounce)] = c
		}
	}
	return nil
}

func (g *fig10Grid) run(deadline time.Time, tr *tracer) *phase {
	if tr == nil {
		return loop(deadline, func(int) (sample, error) {
			_, digest, s, err := g.grid()
			if err == nil && digest != g.figure {
				err = fmt.Errorf("fig10-grid: figure digest %s, warm-up had %s", digest, g.figure)
			}
			return s, err
		})
	}
	g.cache0 = g.cache.Stats()
	return loop(deadline, func(op int) (sample, error) { return g.tracedGrid(tr, op) })
}

// tracedGrid re-issues the figure's cells as harness.RunNamedCtx calls
// through cellsched.RunCtx at the same worker count, one span per cell,
// and checks every cell against the untraced warm-up op.
func (g *fig10Grid) tracedGrid(tr *tracer, op int) (sample, error) {
	type cellOut struct {
		key        string
		bounce     int
		res        *harness.Result
		start, end time.Time
	}
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	grid := tr.begin("cellsched.grid", root, op)
	var cells []cellsched.Cell[cellOut]
	for _, arch := range experiments.ComparisonArchs {
		for b := 1; b <= g.p.Bounces; b++ {
			policy := arch.String()
			cells = append(cells, cellsched.Cell[cellOut]{
				Key: "fig10/" + scene.ConferenceRoom.String() + "/" + cellKey(policy, b),
				Run: func() (cellOut, error) {
					out := cellOut{key: cellKey(policy, b), bounce: b, start: time.Now()}
					id := tr.begin("cellsched.cell", grid, op)
					defer tr.end(id)
					w, err := g.cache.Get(scene.ConferenceRoom, g.p)
					if err != nil {
						return out, err
					}
					out.res, err = g.sim.run(context.Background(), tr, id, op, op == 0, policy, w.BounceRays(b, g.p), w.Data, g.p.Options)
					out.end = time.Now()
					return out, err
				},
			})
		}
	}
	var outs []cellOut
	var gridStart, gridEnd time.Time
	s, err := measure(func() (err error) {
		gridStart = time.Now()
		outs, err = cellsched.RunCtx(context.Background(), cells, g.cfg.nproc)
		gridEnd = time.Now()
		return err
	})
	tr.end(grid)
	if err != nil {
		return s, err
	}
	var starts, ends []time.Time
	hits := make(map[int]string)
	for _, o := range outs {
		starts, ends = append(starts, o.start), append(ends, o.end)
		ref := g.ref[o.key]
		if o.res.Rays != ref.Rays || o.res.SIMDEff != ref.Eff || o.res.Mrays != ref.Mrays {
			return s, fmt.Errorf("fig10-grid: traced cell %s (rays %d, eff %v, mrays %v) differs from untraced (%d, %v, %v)",
				o.key, o.res.Rays, o.res.SIMDEff, o.res.Mrays, ref.Rays, ref.Eff, ref.Mrays)
		}
		d := hitsDigest(o.res.Hits)
		if prev, ok := hits[o.bounce]; ok && prev != d {
			return s, fmt.Errorf("fig10-grid: cell %s hits differ from another policy's on the same rays", o.key)
		}
		hits[o.bounce] = d
	}
	g.cells.record(gridStart, gridEnd, starts, ends, g.cfg.nproc)
	return s, nil
}

func (g *fig10Grid) layers(ph *phase, spans []span) []metric {
	n := float64(ph.ops())
	cs := g.cache.Stats()
	ms := append(g.build.metrics(spans),
		metric{Name: "experiments.cache_builds", Value: float64(cs.Builds-g.cache0.Builds) / n, Unit: "count"},
		metric{Name: "experiments.cache_hits", Value: float64(cs.Hits-g.cache0.Hits) / n, Unit: "count"})
	ms = append(ms, g.cells.metrics()...)
	return append(ms, g.sim.metrics(ph.ops(), spans, sum(ph.opAlloc))...)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cellLayers accumulates the cell scheduler's view of traced grids.
type cellLayers struct {
	cells     int
	busy      []float64
	waitMS    []float64
	straggler []float64
}

// record takes one grid's wall interval and its cells' intervals. With
// workers claiming cells until none are left, the last cell each worker
// ran ends after every other cell it ran, so the par latest cell ends
// are the workers' finishing times.
func (c *cellLayers) record(start, end time.Time, starts, ends []time.Time, par int) {
	c.cells = len(starts)
	var busy time.Duration
	for i := range starts {
		busy += ends[i].Sub(starts[i])
		c.waitMS = append(c.waitMS, ms(starts[i].Sub(start)))
	}
	c.busy = append(c.busy, ratio(float64(busy), float64(par)*float64(end.Sub(start))))
	sorted := append([]time.Time(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].After(sorted[j]) })
	if len(sorted) > 1 && par > 1 {
		c.straggler = append(c.straggler, ms(sorted[0].Sub(sorted[1])))
	}
}

func (c *cellLayers) metrics() []metric {
	return []metric{
		{Name: "cellsched.cells", Value: float64(c.cells), Unit: "count"},
		timing("cellsched.busy_frac", "ratio", c.busy),
		timing("cellsched.cell_wait_ms_p50", "ms", c.waitMS),
		timing("cellsched.straggler_ms", "ms", c.straggler),
	}
}

// --- modern-big -----------------------------------------------------------

// modernBig runs Aila then DRS on one bounce stream on the 128-SMX
// modern-big device: one device at a time, so the cell scheduler is idle
// and host time goes to per-SMX epoch handoffs and per-run setup.
type modernBig struct {
	cfg   config
	opt   harness.Options
	w     *experiments.Workload
	rays  []geom.Ray
	build buildLayers
	sim   simLayers
	ref   map[string]outcome // warm-up outcomes by policy
}

var bigPolicies = []string{"aila", "drs"}

func newModernBig(cfg config, tr *tracer, parent, op int) (instance, error) {
	m := &modernBig{cfg: cfg}
	p := cfg.simParams()
	w, err := m.build.load(tr, parent, op, scene.ConferenceRoom, p, experiments.BuildWorkload)
	if err != nil {
		return nil, err
	}
	ac, err := archconfig.Builtin("modern-big")
	if err != nil {
		return nil, err
	}
	if m.opt, err = harness.ApplyArch(ac, p.Options); err != nil {
		return nil, err
	}
	m.w, m.rays = w, rotate(w.BounceRays(cfg.bigBounce, p), cfg.seed)
	return m, nil
}

// rotate returns the stream started at a seeded offset: the same rays,
// with a different assignment of rays to SMXs. Seed 1 keeps the order.
func rotate(rays []geom.Ray, seed uint64) []geom.Ray {
	off := int((seed - 1) * 0x9E3779B97F4A7C15 % uint64(len(rays)))
	return append(append([]geom.Ray(nil), rays[off:]...), rays[:off]...)
}

func (m *modernBig) close() error { return nil }

// pair runs both policies, untraced when tr is nil.
func (m *modernBig) pair(tr *tracer, op int) (map[string]outcome, sample, error) {
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	results := make([]*harness.Result, len(bigPolicies))
	s, err := measure(func() (err error) {
		for i, pol := range bigPolicies {
			if tr == nil {
				results[i], err = harness.RunNamedCtx(context.Background(), pol, m.rays, m.w.Data, m.opt)
			} else {
				results[i], err = m.sim.run(context.Background(), tr, root, op, op == 0, pol, m.rays, m.w.Data, m.opt)
			}
			if err != nil {
				return fmt.Errorf("modern-big %s: %w", pol, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, s, err
	}
	out := make(map[string]outcome)
	for i, pol := range bigPolicies {
		out[pol] = outcomeOf(results[i])
	}
	if out["aila"].Hits != out["drs"].Hits {
		err = fmt.Errorf("modern-big: drs hits differ from aila's on the same rays")
	}
	return out, s, err
}

func (m *modernBig) warm() error {
	out, _, err := m.pair(nil, 0)
	if err != nil {
		return err
	}
	if m.cfg.pins != nil && m.cfg.seed == 1 {
		for _, pol := range bigPolicies {
			if out[pol] != m.cfg.pins.ModernBig[pol] {
				return fmt.Errorf("modern-big %s: %+v, pinned %+v", pol, out[pol], m.cfg.pins.ModernBig[pol])
			}
		}
	}
	m.ref = out
	return nil
}

func (m *modernBig) run(deadline time.Time, tr *tracer) *phase {
	return loop(deadline, func(op int) (sample, error) {
		out, s, err := m.pair(tr, op)
		for _, pol := range bigPolicies {
			if err == nil && out[pol] != m.ref[pol] {
				err = fmt.Errorf("modern-big %s: %+v, untraced warm-up had %+v", pol, out[pol], m.ref[pol])
			}
		}
		return s, err
	})
}

func (m *modernBig) layers(ph *phase, spans []span) []metric {
	ms := m.build.metrics(spans)
	return append(ms, m.sim.metrics(ph.ops(), spans, sum(ph.opAlloc))...)
}
