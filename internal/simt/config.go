package simt

import (
	"fmt"

	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/regfile"
)

// DefaultEpochCycles is the default epoch length of the epoch-barrier
// engine. Shorter epochs mean more barriers (slower); the epoch length
// bounds how far one SMX's view of the L2 can lag the canonical drain
// order, and it is clamped so no queued request could ever have
// completed before the barrier that resolves it (see Config.EpochLen).
const DefaultEpochCycles = 64

// Config holds the GPU microarchitectural parameters (Table 1 of the
// paper: a GeForce GTX780, Kepler architecture).
type Config struct {
	WarpSize             int // SIMD lanes per warp
	NumSMX               int // SMXs per GPU
	SchedulersPerSMX     int // warp schedulers per SMX
	DispatchPerScheduler int // instruction dispatch units per scheduler
	MaxWarpsPerSMX       int // resident warps (kernel-dependent)
	ClockMHz             int // SMX clock

	// SchedFactory, when non-nil, supplies the warp-scheduler policy:
	// NewSMX calls it once per SMX and binds the returned SchedProgram's
	// funcs directly into the issue path (see sched.go). A nil factory
	// binds the builtin greedy-then-oldest scan (Table 1's
	// configuration), byte-identical to the registry's "gto".
	SchedFactory SchedFactory

	Mem memsys.Config
	RF  regfile.Config

	// EpochCycles is the epoch length (in device cycles) of the
	// epoch-barrier engine; zero means DefaultEpochCycles. The
	// effective length is clamped to the minimum L2-bound latency (see
	// EpochLen), which keeps the deferred hit/miss resolution exact.
	EpochCycles int

	// MaxCycles aborts a run that fails to terminate (engine bug
	// guard). Zero means the default of 2^40.
	MaxCycles int64

	// Collector, when non-nil, attaches the unified observability layer
	// to the run: RunGPU registers every component's counters into
	// Collector.Registry under hierarchical smx<N>/... paths, and the
	// epoch-barrier engine samples Collector.Series at every barrier
	// (active warps, issued instructions, L2 queue depths — see
	// SMX.RegisterSeries).
	Collector *metrics.Collector
}

// DefaultConfig returns the paper's Table 1 configuration: 980 MHz,
// 32 lanes, 15 SMXs, 4 schedulers with 8 dispatch units per SMX,
// 65536 registers per SMX, 48 KB L1 data, 48 KB L1 texture, 1536 KB L2.
func DefaultConfig() Config {
	return Config{
		WarpSize:             32,
		NumSMX:               15,
		SchedulersPerSMX:     4,
		DispatchPerScheduler: 2,
		MaxWarpsPerSMX:       48,
		ClockMHz:             980,
		Mem:                  memsys.DefaultConfig(),
		RF:                   regfile.DefaultConfig(),
	}
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	switch {
	case c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("simt: warp size %d out of range [1,32]", c.WarpSize)
	case c.NumSMX <= 0:
		return fmt.Errorf("simt: need at least one SMX")
	case c.SchedulersPerSMX <= 0:
		return fmt.Errorf("simt: need at least one scheduler")
	case c.DispatchPerScheduler <= 0:
		return fmt.Errorf("simt: need at least one dispatch unit")
	case c.MaxWarpsPerSMX <= 0:
		return fmt.Errorf("simt: need at least one resident warp")
	case c.ClockMHz <= 0:
		return fmt.Errorf("simt: clock must be positive")
	case c.EpochCycles < 0:
		return fmt.Errorf("simt: epoch length %d must not be negative", c.EpochCycles)
	}
	return nil
}

// EpochLen returns the effective epoch length of the epoch-barrier
// engine: EpochCycles (default DefaultEpochCycles) clamped to the
// minimum latency of an L2-bound access (L1HitLat + L2HitLat). The
// clamp is what makes deferred resolution exact: a request issued in an
// epoch cannot complete before that epoch's barrier, so resolving its
// hit/miss at the barrier never changes what a warp could have issued
// inside the epoch.
func (c Config) EpochLen() int64 {
	e := c.EpochCycles
	if e <= 0 {
		e = DefaultEpochCycles
	}
	if lim := c.Mem.L1HitLat + c.Mem.L2HitLat; lim > 0 && e > lim {
		e = lim
	}
	if e < 1 {
		e = 1
	}
	return int64(e)
}
