// Package ser implements a Shader-Execution-Reordering-style policy:
// reorder-at-hit. When a warp diverges, the threads leaving the
// majority path park in a bounded on-chip reorder window tagged with a
// coherence key derived from the thread's current hit object (the BVH
// child reference it is about to visit or test). A hardware regrouper
// re-forms full warps from the window sorted by coherence key, so the
// threads of a re-formed warp fetch the same (or neighbouring) nodes
// and triangles and their memory accesses coalesce — the mechanism
// behind ReorderThread()'s 20-100% production gains (SNIPPETS.md
// snippets 1-2).
//
// The model sits between DMK and DRS in cost: like DMK it re-forms
// warps from a shared pool at divergence, but the move is a hardware
// context handoff (a couple of injected instructions per re-formed
// warp), not a 17-register spawn-memory dump/load; like DRS it sorts
// by work coherence, but within a bounded window rather than over the
// whole resident ray population.
//
// Determinism: the window is a dense per-target table; spawning picks
// the fullest target (lowest target id on ties) and the entries sorted
// by (coherence key, slot id) — the slot id is the final tie-break, so
// the permutation is a pure function of simulation state.
package ser

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/progcheck"
	"repro/internal/reorder"
	"repro/internal/simt"
)

// Config holds the SER parameters.
type Config struct {
	// WindowSize bounds the reorder window in thread contexts (the
	// sorting scope; production SER reorders within bounded hardware
	// windows, not globally). Divergences that would overflow the
	// window serialize on the IPDOM stack instead. Defaults to 8 warps
	// of threads.
	WindowSize int
	// MinDivergence is the smallest departing minority worth parking;
	// smaller splits serialize on the reconvergence stack. Defaults
	// to 2.
	MinDivergence int
	// MinOccupancy is the warp occupancy (in lanes) below which the
	// surviving majority also parks, freeing the warp for re-formation.
	// Defaults to 3/4 of a warp.
	MinOccupancy int
	// ReorderInstrs is the instruction overhead charged per re-formed
	// warp (the ReorderThread() handoff; SER is hardware-assisted, so
	// this is small). Defaults to 2.
	ReorderInstrs int
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{WindowSize: 256, MinDivergence: 2, MinOccupancy: 24, ReorderInstrs: 2}
}

// Stats counts SER activity.
type Stats struct {
	// Reorders counts warps re-formed from the window.
	Reorders int64
	// ThreadsMoved counts thread contexts parked and re-grouped.
	ThreadsMoved int64
	// WindowHighWater is the maximum window occupancy in threads.
	WindowHighWater int64
	// Serialized counts divergences that fell back to the IPDOM stack
	// (window full, divergence too small, or stacked reconvergence).
	Serialized int64
}

// Add merges o into s (statcheck.AddCovers guards field coverage).
func (s *Stats) Add(o Stats) {
	s.Reorders += o.Reorders
	s.ThreadsMoved += o.ThreadsMoved
	if o.WindowHighWater > s.WindowHighWater {
		s.WindowHighWater = o.WindowHighWater
	}
	s.Serialized += o.Serialized
}

// entry is one parked thread context: its kernel slot and coherence
// key.
type entry struct {
	key  int64
	slot int32
}

// Wrapper attaches SER behaviour to the baseline kernel through the
// engine's divergence hook plus a regrouper tick.
type Wrapper struct {
	cfg      Config
	k        *kernels.Aila
	warpSize int

	// window holds parked threads per branch target, indexed densely by
	// block id (no map iteration anywhere near the spawn decision).
	window [][]entry
	count  int

	stats Stats
}

// New creates the per-SMX SER wrapper.
func New(cfg Config, k *kernels.Aila, warpSize int) *Wrapper {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 8 * warpSize
	}
	if cfg.MinDivergence <= 0 {
		cfg.MinDivergence = 2
	}
	if cfg.MinOccupancy <= 0 {
		cfg.MinOccupancy = warpSize * 3 / 4
	}
	if cfg.ReorderInstrs <= 0 {
		cfg.ReorderInstrs = 2
	}
	return &Wrapper{
		cfg:      cfg,
		k:        k,
		warpSize: warpSize,
		window:   make([][]entry, len(k.Blocks())),
	}
}

// Hooks returns the engine hooks implementing SER.
func (w *Wrapper) Hooks() simt.Hooks {
	return simt.Hooks{
		OnDiverge:  w.onDiverge,
		Tick:       w.tick,
		OnWarpDone: w.onWarpDone,
	}
}

// Stats returns a snapshot of the wrapper's counters.
func (w *Wrapper) Stats() Stats { return w.stats }

// RegisterMetrics registers the wrapper's counters under prefix
// ("smx3/ser") in the unified registry, plus the live window occupancy
// as a gauge.
func (w *Wrapper) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterStruct(prefix, &w.stats)
	reg.Gauge(prefix+"/window_threads", func() int64 { return int64(w.count) })
}

// WindowThreads returns the current reorder-window occupancy.
func (w *Wrapper) WindowThreads() int { return w.count }

// hitKey derives a thread's coherence key: the identity hash of the
// hit-object reference it will work on next — the leaf being tested,
// a postponed leaf, or the child node about to be visited. Packed
// child references are already unique per node/leaf, and nearby BVH
// nodes have nearby indices, so sorting raw references groups equal
// hit objects first and spatial neighbours second. Threads about to
// fetch a fresh ray key on their ray index, preserving stream order.
func (w *Wrapper) hitKey(slot int32) int64 {
	c := w.k.Ctx(slot)
	switch {
	case c.CurLeaf != kernels.RefNone:
		return c.CurLeaf
	case c.Pending != kernels.RefNone:
		return c.Pending
	case c.Cur != kernels.RefNone:
		return c.Cur
	default:
		return int64(c.RayIndex)
	}
}

// onDiverge intercepts warp divergence: departing threads park in the
// reorder window keyed by hit object; the surviving majority keeps
// running. A split too small to pay for reordering, a stacked
// reconvergence, or a full window serializes on the IPDOM stack
// instead — the window bound is what makes this SER-style rather than
// a global sort.
func (w *Wrapper) onDiverge(s *simt.SMX, warp, block int, lanes []int, targets []int) bool {
	counts := make(map[int]int, 4)
	for _, t := range targets {
		counts[t]++
	}
	major, majorN := targets[0], 0
	//drslint:allow map-range -- lowest-target tie-break makes the pick order-independent
	for t, n := range counts {
		if n > majorN || (n == majorN && t < major) {
			major, majorN = t, n
		}
	}

	dumpAll := majorN < w.cfg.MinOccupancy
	departing := len(lanes) - majorN
	if dumpAll {
		departing = len(lanes)
	}
	wp := s.Warp(warp)
	switch {
	case !dumpAll && departing < w.cfg.MinDivergence:
		w.stats.Serialized++
		return false
	case wp.StackDepth() > 1:
		// Threads parked at an outer reconvergence point would be
		// dropped by a remap; serialize this divergence.
		w.stats.Serialized++
		return false
	case w.count+departing > w.cfg.WindowSize:
		w.stats.Serialized++
		return false
	}

	slots := wp.Slots()
	newSlots := make([]int32, w.warpSize)
	for i := range newSlots {
		newSlots[i] = -1
	}
	keep := 0
	for i, l := range lanes {
		if !dumpAll && targets[i] == major {
			newSlots[keep] = slots[l]
			keep++
			continue
		}
		w.park(targets[i], slots[l])
	}
	wp.SetMapping(newSlots, major)
	s.RecountLive()
	w.trySpawn(s)
	return true
}

// park deposits one thread context in the window.
func (w *Wrapper) park(target int, slot int32) {
	w.window[target] = append(w.window[target], entry{key: w.hitKey(slot), slot: slot})
	w.count++
	if int64(w.count) > w.stats.WindowHighWater {
		w.stats.WindowHighWater = int64(w.count)
	}
	w.stats.ThreadsMoved++
}

// onWarpDone lets the regrouper reuse a retiring warp.
func (w *Wrapper) onWarpDone(s *simt.SMX, warp int) {
	w.trySpawn(s)
}

// tick is the regrouper's cycle hook.
func (w *Wrapper) tick(s *simt.SMX, now int64) {
	if w.count == 0 {
		return
	}
	w.trySpawn(s)
}

// trySpawn re-forms warps from the window: the fullest target first
// (lowest target id on ties), its entries sorted by coherence key with
// the slot id as the final tie-break. Full warps only, until nothing
// else is running (the drain phase re-forms partial warps so no parked
// thread is stranded).
func (w *Wrapper) trySpawn(s *simt.SMX) {
	if w.count == 0 {
		return
	}
	for {
		best, bestN := -1, 0
		for t, q := range w.window {
			if len(q) > bestN {
				best, bestN = t, len(q)
			}
		}
		if best < 0 || bestN == 0 {
			return
		}
		if bestN < w.warpSize && s.LiveWarps() > 0 {
			return
		}
		var free *simt.Warp
		for i := 0; i < s.NumWarps(); i++ {
			if s.Warp(i).Done() {
				free = s.Warp(i)
				break
			}
		}
		if free == nil {
			return
		}
		q := w.window[best]
		sort.Slice(q, func(i, j int) bool {
			if q[i].key != q[j].key {
				return q[i].key < q[j].key
			}
			return q[i].slot < q[j].slot
		})
		n := bestN
		if n > w.warpSize {
			n = w.warpSize
		}
		slots := make([]int32, w.warpSize)
		for i := range slots {
			slots[i] = -1
		}
		for i := 0; i < n; i++ {
			slots[i] = q[i].slot
		}
		w.window[best] = q[n:]
		w.count -= n
		free.Resume(slots, best)
		s.RecountLive()
		w.stats.Reorders++
		// The ReorderThread() handoff: a short hardware context move,
		// not a spawn-memory round trip.
		s.InjectInstrs(free, w.cfg.ReorderInstrs, n, simt.TagSI, 0)
	}
}

// Policy adapts SER to the reorder.Policy interface.
type Policy struct {
	Cfg Config
}

// NewPolicy wraps a SER configuration as a policy.
func NewPolicy(cfg Config) *Policy { return &Policy{Cfg: cfg} }

// Name implements reorder.Policy.
func (p *Policy) Name() string { return "ser" }

// Summary implements reorder.Policy.
func (p *Policy) Summary() string {
	return "SER-style reorder-at-hit: divergent threads regrouped by hit-object key in a bounded window"
}

// Validate implements reorder.Policy: the constructor defaults every
// non-positive parameter, so only negatives are rejected.
func (p *Policy) Validate() error {
	if p.Cfg.WindowSize < 0 || p.Cfg.MinDivergence < 0 || p.Cfg.MinOccupancy < 0 || p.Cfg.ReorderInstrs < 0 {
		return errNegativeConfig
	}
	return nil
}

// Warps implements reorder.Policy: 0 accepts the harness warp count.
func (p *Policy) Warps() int { return 0 }

// Caps implements reorder.Policy.
func (p *Policy) Caps() progcheck.Caps { return progcheck.Caps{} }

// NewSMX implements reorder.Policy. SER composes with the stock kernel
// (speculative traversal included): reorder-at-hit is orthogonal to
// what the kernel does between hits, which is how production SER ships.
func (p *Policy) NewSMX(env reorder.Env) (reorder.Instance, error) {
	k := kernels.NewAila(env.Data, env.Pool, env.Cfg.MaxWarpsPerSMX*env.Cfg.WarpSize, env.Aila)
	w := New(p.Cfg, k, env.Cfg.WarpSize)
	if env.Collector != nil {
		w.RegisterMetrics(env.Collector.Registry, env.MetricsPrefix)
	}
	return &instance{k: k, w: w}, nil
}

// instance is one SMX's SER attachment.
type instance struct {
	k *kernels.Aila
	w *Wrapper
}

func (i *instance) Program() simt.SMXProgram {
	return simt.SMXProgram{Kernel: i.k, Hooks: i.w.Hooks()}
}

func (i *instance) Hits() []geom.Hit { return i.k.Hits }

// TypedStats implements reorder.TypedStatser with the SER Stats.
func (i *instance) TypedStats() any { return i.w.Stats() }

// ReorderStats implements reorder.StatsReporter.
func (i *instance) ReorderStats() reorder.Stats {
	st := i.w.Stats()
	return reorder.Stats{Reorders: st.Reorders, RaysMoved: st.ThreadsMoved}
}

// errNegativeConfig keeps Validate allocation-free and comparable.
var errNegativeConfig = &configError{}

type configError struct{}

func (*configError) Error() string {
	return "ser: configuration values must not be negative (zero selects the default)"
}
