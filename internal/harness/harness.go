// Package harness wires complete simulated ray tracing runs: it
// partitions a ray stream across SMXs, instantiates the requested
// reordering policy per SMX, runs the device, and merges results (per
// the paper's methodology, traces of rays are streamed into the
// traversal kernels, and performance is reported in Mrays/s).
//
// Method dispatch goes through the reorder.Policy registry: every
// reordering technique — the paper's DRS, the DMK/TBC baselines, the
// SER-style window reorderer, global ray sorting, the explicit no-op —
// is a Policy resolved by name (Policies() lists them), and the harness
// itself contains no per-method code. The Arch enum survives as the
// name table of the four architectures Figures 10 and 11 compare (the
// run/arch metric value).
package harness

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dmk"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/progcheck"
	"repro/internal/raysort"
	"repro/internal/reorder"
	"repro/internal/ser"
	"repro/internal/simt"
	"repro/internal/tbc"
	"repro/internal/warpsched"
)

// Arch names one of the four architectures Figures 10 and 11 compare.
// It survives the policy refactor as a closed enum over the legacy
// names; arch.String() is the policy name RunNamed takes.
type Arch int

const (
	// ArchAila is the software baseline (while-while kernel).
	ArchAila Arch = iota
	// ArchDRS is the paper's dynamic ray shuffling architecture.
	ArchDRS
	// ArchDMK is the dynamic micro-kernel baseline.
	ArchDMK
	// ArchTBC is the thread block compaction baseline.
	ArchTBC
)

// archNames is the name table of the four legacy architectures,
// indexed by Arch.
var archNames = [...]string{"aila", "drs", "dmk", "tbc"}

func (a Arch) String() string {
	if a < 0 || int(a) >= len(archNames) {
		return "unknown"
	}
	return archNames[a]
}

// LegacyArch maps a policy name back to its legacy Arch value; ok is
// false, and a is -1, for policies that postdate the enum. The run/arch
// metric keeps its historical values through this mapping, and the
// service folds legacy policy spellings into its arch field with it.
func LegacyArch(name string) (a Arch, ok bool) {
	for i, n := range archNames {
		if n == name {
			return Arch(i), true
		}
	}
	return -1, false
}

// policies is the process-wide registry, built once. Registration
// order is the presentation order: the four legacy architectures, then
// the policies this framework added.
var policies = sync.OnceValue(func() *reorder.Registry {
	r := reorder.NewRegistry()
	r.MustRegister(reorder.Registration{
		Name:    "aila",
		Summary: reorder.NewAilaBaseline().Summary(),
		New:     func() reorder.Policy { return reorder.NewAilaBaseline() },
	})
	r.MustRegister(reorder.Registration{
		Name:    "drs",
		Summary: core.NewPolicy(core.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return core.NewPolicy(core.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "dmk",
		Summary: dmk.NewPolicy(dmk.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return dmk.NewPolicy(dmk.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "tbc",
		Summary: tbc.NewPolicy(tbc.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return tbc.NewPolicy(tbc.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "ser",
		Summary: ser.NewPolicy(ser.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return ser.NewPolicy(ser.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "sort",
		Summary: raysort.NewPolicy(raysort.DefaultConfig()).Summary(),
		New:     func() reorder.Policy { return raysort.NewPolicy(raysort.DefaultConfig()) },
	})
	r.MustRegister(reorder.Registration{
		Name:    "noop",
		Summary: reorder.NewNoop().Summary(),
		New:     func() reorder.Policy { return reorder.NewNoop() },
	})
	return r
})

// Policies returns the registry of every built-in reordering policy.
// It is the single source of the name→method mapping: CLIs list it,
// the service validates against it, and an unknown name fails here
// with a typed *reorder.UnknownPolicyError and nowhere else.
func Policies() *reorder.Registry { return policies() }

// Schedulers returns the registry of every built-in warp-scheduler
// policy (gto, lrr, wasp). Like Policies it is the single judge of
// scheduler names — drsbench flags and service job specs resolve
// through it and an unknown name fails with a typed
// *warpsched.UnknownSchedulerError and nowhere else.
func Schedulers() *warpsched.Registry { return warpsched.Builtin() }

// Options configures a run.
type Options struct {
	// Simt is the device configuration. Its MaxWarpsPerSMX is the warp
	// budget of every policy whose Warps() is 0 (48 in the paper);
	// policies with their own machine sizing — DRS derives warps from
	// its row configuration — override it.
	Simt simt.Config
	// Aila configures the while-while kernel for the policies that run
	// it (aila, noop, ser, sort). DMK and TBC always run the plain
	// non-speculative kernel, as they historically did.
	Aila kernels.AilaConfig
	// WhileIf configures Kernel 1 for the DRS policy.
	WhileIf kernels.WhileIfConfig
	// PolicyOverrides supplies configured policy instances for named
	// lookups: a run asking for a name found here (first match wins)
	// uses the override instead of the registry default. It is how a
	// run gets a policy with non-default configuration (e.g.
	// core.NewPolicy(customCfg)), for one policy or several at once.
	PolicyOverrides []reorder.Policy
	// Scheduler selects the warp scheduler: a registry default
	// (Schedulers().New(name)) or a configured instance such as
	// warpsched.WaSP{Runners: 4, Distance: 128}. Its factory is
	// devirtualized at NewSMX. nil keeps the device's builtin GTO scan,
	// which registry "gto" matches byte for byte. It is the only
	// scheduler selector: Simt.SchedFactory must stay nil.
	Scheduler warpsched.Scheduler
	// CheckDeterminism is the harness's determinism assertion mode: the
	// whole simulation runs twice and the run fails if the two runs'
	// device stats (cycles, instruction counts, cache and register-file
	// counters) differ in any way. It doubles the runtime; use it when
	// validating engine changes, which must always pass it. With
	// Observe set the comparison also covers the full metrics registry,
	// naming the exact counter that diverged.
	CheckDeterminism bool
	// Observe attaches the unified metrics layer to the run: every
	// component registers its counters in a fresh registry
	// (Result.Metrics holds the end-of-run snapshot) and the
	// epoch-barrier engine samples the per-epoch time-series
	// (Result.Series) at every barrier. Adds no work to the simulated
	// hot paths; see internal/metrics.
	Observe bool
	// SeriesCap overrides the epoch time-series ring capacity
	// (0 = metrics.DefaultSeriesCap). The ring keeps the newest samples
	// and counts evictions.
	SeriesCap int
	// Parallelism is the worker-pool size the experiment cell scheduler
	// (internal/cellsched) uses to run independent RunNamed simulations
	// concurrently: 0 means GOMAXPROCS, 1 forces the sequential path.
	// It never changes any result — each cell is an isolated device and
	// the scheduler assembles outputs in canonical cell order, so tables
	// and stats are byte-identical at every setting (drsbench -par N).
	// A single RunNamed call ignores it; only grid runners consult it.
	Parallelism int
	// OnEpochSample, when set together with Observe, is invoked at every
	// epoch barrier with the device cycle and the sampled series row
	// (metrics.Series.OnSample). It runs on the engine goroutine with
	// all SMX workers parked; the row must be copied if retained. The
	// service layer feeds its live SSE progress streams from it. With
	// CheckDeterminism the hook fires for both runs.
	OnEpochSample func(cycle int64, row []int64)
}

// DefaultOptions returns the paper's configuration: Table 1 GPU,
// 48-warp Aila kernel with speculative traversal; policy configuration
// comes from each policy's own defaults (override with
// PolicyOverrides).
func DefaultOptions() Options {
	return Options{
		Simt: simt.DefaultConfig(),
		Aila: kernels.AilaConfig{Speculative: true},
	}
}

// Result is a completed run.
type Result struct {
	// Policy is the name of the reordering policy that ran.
	Policy string
	// Sched is the name of the warp-scheduler policy that ran ("gto"
	// for the historical default, whether implicit or explicit).
	Sched string
	GPU   *simt.GPUResult
	// Hits holds the committed hit for every input ray, in input order
	// (stream-sorting policies map hits back through their permutation).
	Hits []geom.Hit
	// Rays is the number of rays traced.
	Rays int
	// Mrays is the simulated tracing rate in Mrays/s, including any
	// modeled reordering cost the engine did not already charge
	// (Reorder.CostCycles).
	Mrays float64
	// SIMDEff is the overall SIMD efficiency.
	SIMDEff float64
	// Reorder aggregates the per-SMX generic reordering stats every
	// policy reports, plus stream-level costs (the sort pre-pass).
	Reorder reorder.Stats
	// DRS aggregates the per-SMX DRS control stats (drs policy only).
	DRS core.Stats
	// DMKStats aggregates the per-SMX DMK stats (dmk policy only).
	DMKStats dmk.Stats
	// TBCStats aggregates the per-SMX TBC stats (tbc policy only).
	TBCStats tbc.Stats
	// SERStats aggregates the per-SMX SER stats (ser policy only).
	SERStats ser.Stats
	// Config is the effective device configuration the run used (after
	// per-policy warp-count adjustments).
	Config simt.Config
	// Metrics is the end-of-run snapshot of the unified registry
	// (Options.Observe only).
	Metrics *metrics.Snapshot
	// Series is the per-epoch time-series, sampled at every epoch
	// barrier (Options.Observe only).
	Series *metrics.Series
}

// RunNamed simulates tracing the rays under the named reordering
// policy ("drs", "ser", "sort", ...; Policies().Names() lists them).
func RunNamed(name string, rays []geom.Ray, data *kernels.SceneData, opt Options) (*Result, error) {
	return RunNamedCtx(context.Background(), name, rays, data, opt)
}

// RunNamedCtx is RunNamed with cooperative cancellation: the options are
// validated up front (typed *OptionsError) and ctx is threaded into the
// engine, which observes it at every epoch barrier, so a deadline or a
// client disconnect stops a long simulation within one epoch.
// Cancellation returns only an error, never a partial result, so an
// uncancelled RunNamedCtx is byte-identical to RunNamed. For the four
// legacy names it is byte-identical to the pre-registry harness.
func RunNamedCtx(ctx context.Context, name string, rays []geom.Ray, data *kernels.SceneData, opt Options) (*Result, error) {
	pol, err := opt.resolve(name)
	if err != nil {
		return nil, err
	}
	res, err := runOnce(ctx, pol, rays, data, opt)
	if err != nil || !opt.CheckDeterminism {
		return res, err
	}
	again, err := runOnce(ctx, pol, rays, data, opt)
	if err != nil {
		return nil, fmt.Errorf("harness: determinism check re-run: %w", err)
	}
	if err := compareRuns(res, again); err != nil {
		return nil, fmt.Errorf("harness: determinism check failed for %s: %w", name, err)
	}
	return res, nil
}

// compareRuns reports the first divergence between two runs of the same
// configuration.
func compareRuns(a, b *Result) error {
	switch {
	case a.GPU.Stats != b.GPU.Stats:
		return fmt.Errorf("device stats diverged: cycles %d vs %d, instrs %d vs %d",
			a.GPU.Stats.Cycles, b.GPU.Stats.Cycles, a.GPU.Stats.WarpInstrs, b.GPU.Stats.WarpInstrs)
	case a.GPU.L1TexMissRate != b.GPU.L1TexMissRate:
		return fmt.Errorf("L1Tex miss rate diverged: %v vs %v", a.GPU.L1TexMissRate, b.GPU.L1TexMissRate)
	case a.GPU.RFStats != b.GPU.RFStats:
		return fmt.Errorf("register file counters diverged: %+v vs %+v", a.GPU.RFStats, b.GPU.RFStats)
	}
	if a.Metrics != nil && b.Metrics != nil {
		if d := a.Metrics.Diff(b.Metrics); d != "" {
			return fmt.Errorf("metrics registry diverged: %s", d)
		}
	}
	for i := range a.GPU.PerSMX {
		if a.GPU.PerSMX[i] != b.GPU.PerSMX[i] {
			return fmt.Errorf("SMX %d stats diverged: cycles %d vs %d",
				i, a.GPU.PerSMX[i].Cycles, b.GPU.PerSMX[i].Cycles)
		}
	}
	for i := range a.Hits {
		if a.Hits[i].TriIndex != b.Hits[i].TriIndex {
			return fmt.Errorf("hit %d diverged: tri %d vs %d", i, a.Hits[i].TriIndex, b.Hits[i].TriIndex)
		}
	}
	return nil
}

// runOnce performs one complete simulation under the resolved policy.
func runOnce(ctx context.Context, pol reorder.Policy, rays []geom.Ray, data *kernels.SceneData, opt Options) (*Result, error) {
	if len(rays) == 0 {
		return nil, fmt.Errorf("harness: empty ray stream")
	}
	name := pol.Name()
	cfg := opt.Simt
	if w := pol.Warps(); w > 0 {
		cfg.MaxWarpsPerSMX = w
	}
	// A scheduler is devirtualized through its factory at NewSMX; a nil
	// one leaves the device's builtin GTO scan in charge, which registry
	// "gto" matches byte for byte — its factory is nil too.
	schedName := "gto"
	if opt.Scheduler != nil {
		cfg.SchedFactory = opt.Scheduler.Factory()
		schedName = opt.Scheduler.Name()
	}

	// Stream-level reordering happens before the device exists: a
	// sorting policy permutes the whole stream, the trace runs on the
	// permuted order, and the hits map back through the permutation.
	runRays := rays
	var perm []int
	var streamCost int64
	if ss, ok := pol.(reorder.StreamSorter); ok {
		perm, streamCost = ss.SortStream(rays)
		if len(perm) != len(rays) {
			return nil, fmt.Errorf("harness: policy %s returned a %d-entry permutation for %d rays", name, len(perm), len(rays))
		}
		sorted := make([]geom.Ray, len(rays))
		for i, oi := range perm {
			sorted[i] = rays[oi]
		}
		runRays = sorted
	}

	var col *metrics.Collector
	if opt.Observe {
		col = metrics.NewCollector(opt.SeriesCap)
		col.Registry.Const("run/rays", int64(len(rays)))
		arch, _ := LegacyArch(name)
		col.Registry.Const("run/arch", int64(arch))
		col.Registry.Const("run/num_smx", int64(cfg.NumSMX))
		col.Registry.Const("run/epoch_cycles", cfg.EpochLen())
		if perm != nil {
			col.Registry.Const("run/sort_cost_cycles", streamCost)
		}
		col.Series.OnSample = opt.OnEpochSample
		cfg.Collector = col
	}

	type smxOut struct {
		inst  reorder.Instance
		start int
	}
	outs := make([]*smxOut, cfg.NumSMX)

	// Every SMX's kernel program is verified here, against the
	// capabilities its policy declares, before the engine trusts its
	// block table.
	caps := pol.Caps()
	factory := func(id int) (simt.SMXProgram, error) {
		start, end := simt.Partition(len(runRays), cfg.NumSMX, id)
		pool := &kernels.Pool{Rays: runRays[start:end]}
		inst, err := pol.NewSMX(reorder.Env{
			SMXID:         id,
			Cfg:           cfg,
			Data:          data,
			Pool:          pool,
			Aila:          opt.Aila,
			WhileIf:       opt.WhileIf,
			Collector:     col,
			MetricsPrefix: fmt.Sprintf("smx%d/%s", id, name),
		})
		if err != nil {
			return simt.SMXProgram{}, err
		}
		prog := inst.Program()
		if fs := progcheck.Verify(name, prog.Kernel, caps); len(fs) > 0 {
			return simt.SMXProgram{}, fmt.Errorf("harness: kernel program rejected for %s: %s: %s (run cmd/drslint for the full report)", name, fs[0].Rule, fs[0].Msg)
		}
		outs[id] = &smxOut{inst: inst, start: start}
		return prog, nil
	}

	gpu, err := simt.RunGPUCtx(ctx, cfg, factory)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy: name,
		Sched:  schedName,
		GPU:    gpu,
		Hits:   make([]geom.Hit, len(rays)),
		Rays:   len(rays),
		Config: cfg,
	}
	hits := res.Hits
	if perm != nil {
		hits = make([]geom.Hit, len(rays))
	}
	for _, o := range outs {
		copy(hits[o.start:], o.inst.Hits())
		if sr, ok := o.inst.(reorder.StatsReporter); ok {
			res.Reorder.Add(sr.ReorderStats())
		}
		if ts, ok := o.inst.(reorder.TypedStatser); ok {
			switch st := ts.TypedStats().(type) {
			case core.Stats:
				res.DRS.Add(st)
			case dmk.Stats:
				res.DMKStats.Add(st)
			case tbc.Stats:
				res.TBCStats.Add(st)
			case ser.Stats:
				res.SERStats.Add(st)
			}
		}
	}
	if perm != nil {
		for i, oi := range perm {
			res.Hits[oi] = hits[i]
		}
		res.Reorder.Add(reorder.Stats{Reorders: 1, RaysMoved: int64(len(rays)), CostCycles: streamCost})
	}
	// Fold modeled out-of-engine reordering cost into the throughput
	// figure. The zero-cost path must stay the exact historical float
	// expression, so only divert through the adjusted copy when a policy
	// actually charged something.
	if res.Reorder.CostCycles == 0 {
		res.Mrays = gpu.Stats.MraysPerSec(int64(len(rays)), cfg.ClockMHz)
	} else {
		charged := gpu.Stats
		charged.Cycles += res.Reorder.CostCycles
		res.Mrays = charged.MraysPerSec(int64(len(rays)), cfg.ClockMHz)
	}
	res.SIMDEff = gpu.Stats.SIMDEfficiency(cfg.WarpSize)
	if col != nil {
		res.Metrics = col.Registry.Snapshot()
		res.Series = col.Series
	}
	return res, nil
}
