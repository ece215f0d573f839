package simt

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/regfile"
)

// SMXProgram is everything one SMX needs to run: its kernel instance
// (kernels hold per-SMX state such as the ray pool partition), the
// architecture hooks, and a launch function that sets up the initial
// warp mappings.
type SMXProgram struct {
	Kernel Kernel
	Hooks  Hooks
	// Launch configures the SMX's initial warps. If nil, LaunchAll(0)
	// is used.
	Launch func(s *SMX)
}

// Factory builds the per-SMX program for SMX id. The GPU calls it once
// per SMX before the run starts.
type Factory func(smxID int) (SMXProgram, error)

// GPUResult is the merged outcome of a device run.
type GPUResult struct {
	Stats Stats
	// PerSMX holds each SMX's individual stats.
	PerSMX []Stats
	// L1TexMissRate is the access-weighted L1 texture miss rate over
	// all SMXs (the paper discusses it for the sponza analysis).
	L1TexMissRate float64
	// RFShuffleShare is the access-weighted share of register file
	// accesses caused by ray shuffling (§4.4).
	RFShuffleShare float64
	// RFStats merges the per-SMX register file counters.
	RFStats regfile.Stats
}

// RunGPU simulates the whole device on the epoch-barrier engine: one
// goroutine per SMX over a shared ordered L2, drained in fixed order at
// every barrier, so the run is bit-reproducible. Device cycles are the
// max over SMXs (they interact only through the L2 in these workloads).
func RunGPU(cfg Config, factory Factory) (*GPUResult, error) {
	return RunGPUCtx(context.Background(), cfg, factory)
}

// RunGPUCtx is RunGPU with cooperative cancellation. The epoch-barrier
// engine checks ctx at every barrier — once per EpochLen device cycles,
// with all SMX workers parked — so a cancelled or expired context stops
// the simulation within one epoch and returns ctx's error. Cancellation
// never yields a partial result (the error return is the only output),
// so it cannot perturb determinism: an uncancelled RunGPUCtx is exactly
// RunGPU.
func RunGPUCtx(ctx context.Context, cfg Config, factory Factory) (*GPUResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("simt: run cancelled before launch: %w", err)
	}
	l2 := memsys.NewOrderedL2(cfg.Mem, cfg.NumSMX)
	col := cfg.Collector
	if col != nil {
		l2.RegisterMetrics(col.Registry, "l2")
	}
	smxs := make([]*SMX, cfg.NumSMX)
	for i := range smxs {
		prog, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("simt: factory for SMX %d: %w", i, err)
		}
		s, err := NewSMX(i, cfg, prog.Kernel, prog.Hooks, l2)
		if err != nil {
			return nil, err
		}
		if prog.Launch != nil {
			prog.Launch(s)
		} else {
			s.LaunchAll(0)
		}
		smxs[i] = s
		if col != nil {
			s.RegisterMetrics(col.Registry)
			s.RegisterSeries(col.Series)
		}
	}
	if err := runEpochs(ctx, cfg, smxs, l2, col); err != nil {
		return nil, err
	}
	res := &GPUResult{PerSMX: make([]Stats, len(smxs))}
	var texAcc, texMiss int64
	for i, s := range smxs {
		st := s.Stats()
		res.PerSMX[i] = st
		res.Stats.Add(st)
		t := s.Mem().L1TexStats()
		texAcc += t.Accesses
		texMiss += t.Misses
		res.RFStats.Add(s.RF().Stats())
	}
	if texAcc > 0 {
		res.L1TexMissRate = float64(texMiss) / float64(texAcc)
	}
	res.RFShuffleShare = res.RFStats.ShuffleShare()
	return res, nil
}

// runEpochs is the deterministic epoch-barrier engine. Each epoch, all
// live SMXs advance in parallel to the same device-cycle boundary while
// their L2-bound requests queue on private ports; at the barrier the
// shared L2 drains every queue in fixed (smxID, issue-order) order and
// each SMX applies the resolved hits/misses to its in-flight warps.
// One persistent worker goroutine per SMX avoids a spawn per epoch.
//
// When a collector is attached, the barrier is also the sampling point
// of the epoch time-series: the engine captures each SMX's L2 port
// queue depth just before the drain consumes it, and samples every
// registered column after the drain and resolutions, so cumulative
// columns (instruction counts, cache accesses) are exact through this
// barrier. The sampling runs on the engine goroutine with every worker
// parked, so it is single-threaded and bit-deterministic.
func runEpochs(ctx context.Context, cfg Config, smxs []*SMX, l2 *memsys.OrderedL2, col *metrics.Collector) error {
	epoch := cfg.EpochLen()
	n := len(smxs)
	var depths []int64
	if col != nil {
		depths = make([]int64, n)
		for i, s := range smxs {
			i := i
			col.Series.Column(s.MetricsPrefix()+"/l2_queue", func() int64 { return depths[i] })
		}
		col.Series.Column("l2/accesses", func() int64 { return l2.Stats().Accesses })
		col.Series.Column("l2/misses", func() int64 { return l2.Stats().Misses })
	}
	errs := make([]error, n)
	starts := make([]chan int64, n)
	var done sync.WaitGroup
	for i := range smxs {
		starts[i] = make(chan int64, 1)
		go func(i int, s *SMX, start <-chan int64) {
			for end := range start {
				errs[i] = s.RunEpoch(end)
				done.Done()
			}
		}(i, smxs[i], starts[i])
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()
	var end int64
	for {
		// Cancellation point: the barrier, with every worker parked. The
		// check costs one atomic load per epoch and the abort path
		// returns an error instead of results, so it cannot affect what
		// an uncancelled run computes.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("simt: run cancelled at device cycle %d: %w", end, err)
		}
		live := false
		for _, s := range smxs {
			if s.LiveWarps() > 0 {
				live = true
				break
			}
		}
		if !live {
			return nil
		}
		end += epoch
		done.Add(n)
		for _, ch := range starts {
			ch <- end
		}
		done.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("simt: SMX %d: %w", i, err)
			}
		}
		// Barrier: canonical drain, then per-SMX resolution (disjoint
		// state, cheap — done inline on the engine goroutine).
		if col != nil {
			for i, s := range smxs {
				depths[i] = int64(s.Mem().Port().Pending())
			}
		}
		l2.Drain()
		for _, s := range smxs {
			s.ResolveEpoch()
		}
		if col != nil {
			col.Series.Sample(end)
		}
	}
}

// Partition splits n work items into parts nearly equal slices,
// returning the [start, end) bounds of part i. Used to split ray
// streams across SMXs.
func Partition(n, parts, i int) (start, end int) {
	if parts <= 0 {
		return 0, n
	}
	base := n / parts
	rem := n % parts
	start = i*base + min(i, rem)
	end = start + base
	if i < rem {
		end++
	}
	return start, end
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
