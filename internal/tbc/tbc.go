// Package tbc implements the Thread Block Compaction baseline (Fung &
// Aamodt, HPCA 2011) the paper compares against in §4.4. Warps of a
// thread block synchronize at divergent branches; their threads are
// then compacted into new warps per branch target under the per-SIMD-
// lane register file constraint (a thread can only move to its own lane
// of another warp). A block-wide reconvergence discipline serializes
// the targets. The two costs the paper identifies — synchronization
// latency and imperfect compaction under the lane constraint — fall out
// of this model directly.
package tbc

import (
	"cmp"
	"slices"

	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/simt"
)

// Config holds the TBC parameters.
type Config struct {
	// WarpsPerBlock is the thread block size in warps (6 in the paper's
	// evaluation, matching the configuration of the TBC paper).
	WarpsPerBlock int
}

// DefaultConfig matches the paper's TBC evaluation: 6 warps per block.
func DefaultConfig() Config { return Config{WarpsPerBlock: 6} }

// Stats counts TBC activity.
type Stats struct {
	Compactions int64 // block-wide compaction events
	WarpsFormed int64 // compacted warps launched
	// Syncs counts warps arriving at compaction barriers.
	Syncs int64
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Compactions += o.Compactions
	s.WarpsFormed += o.WarpsFormed
	s.Syncs += o.Syncs
}

// tblock is the runtime state of one thread block.
type tblock struct {
	warps []int // member warp ids, contiguous and ascending
	// running and parked count the member warps executing and waiting
	// at the barrier; Wrapper.running and Wrapper.parkedAt say which.
	running, parked int
	// pending counts the block's deposited threads over all targets,
	// and npend[t] those bound for branch target t.
	pending int
	npend   []int32
	// heads[t*warpSize+l] is the top of target t's lane-l column, a
	// LIFO threaded through Wrapper.next (-1: empty).
	heads []int32
}

// notParked is parkedAt's value for a warp that is not at the barrier.
const notParked = -1

// tcount is one pending target and its thread count.
type tcount struct {
	target int
	n      int
}

// Wrapper attaches TBC behaviour to the baseline kernel. Every buffer
// is sized at construction; the hooks allocate nothing.
type Wrapper struct {
	cfg       Config
	k         *kernels.Aila
	warpSize  int
	blocks    []tblock
	warpBlock []int
	// running[w] reports that warp w executes as a block member;
	// parkedAt[w] is the cycle it parked at the barrier, or notParked.
	running  []bool
	parkedAt []int64
	// next links the threads of every pending column, per kernel slot.
	// A thread is in at most one column (see push), so one link per
	// slot threads them all.
	next []int32
	// order and lanes are compaction scratch: one entry per branch
	// target, and one formed or retired warp's lane -> slot mapping.
	order []tcount
	lanes []int32
	stats Stats
}

// New creates the per-SMX TBC wrapper for numWarps resident warps.
func New(cfg Config, k *kernels.Aila, numWarps, warpSize int) *Wrapper {
	if cfg.WarpsPerBlock <= 0 {
		cfg.WarpsPerBlock = 6
	}
	targets := len(k.Blocks())
	nblocks := (numWarps + cfg.WarpsPerBlock - 1) / cfg.WarpsPerBlock
	w := &Wrapper{
		cfg:       cfg,
		k:         k,
		warpSize:  warpSize,
		blocks:    make([]tblock, nblocks),
		warpBlock: make([]int, numWarps),
		running:   make([]bool, numWarps),
		parkedAt:  make([]int64, numWarps),
		next:      make([]int32, k.NumSlots()),
		order:     make([]tcount, 0, targets),
		lanes:     make([]int32, warpSize),
	}
	ids := make([]int, numWarps)
	npend := make([]int32, nblocks*targets)
	heads := make([]int32, nblocks*targets*warpSize)
	for i := range heads {
		heads[i] = -1
	}
	// Each block's slices are capacity-clipped, so an out-of-range
	// target or lane faults instead of reaching the next block's state.
	for b := range w.blocks {
		start := b * cfg.WarpsPerBlock
		end := min(start+cfg.WarpsPerBlock, numWarps)
		tb := &w.blocks[b]
		tb.warps = ids[start:end:end]
		tb.npend = npend[b*targets : (b+1)*targets : (b+1)*targets]
		hb := b * targets * warpSize
		tb.heads = heads[hb : hb+targets*warpSize : hb+targets*warpSize]
		for wi := start; wi < end; wi++ {
			ids[wi] = wi
			w.warpBlock[wi] = b
			w.running[wi] = true
			w.parkedAt[wi] = notParked
		}
		tb.running = end - start
	}
	return w
}

// Hooks returns the engine hooks implementing TBC. Warps park at the
// block-wide barrier when they diverge or fall under 3/4 occupancy;
// full uniform warps keep running until then (their in-flight work
// delays the block's compaction — the synchronization latency the
// paper identifies as TBC's limiting cost).
func (w *Wrapper) Hooks() simt.Hooks {
	return simt.Hooks{
		OnBlockEnd: w.onBlockEnd,
		OnWarpDone: w.onWarpDone,
	}
}

// Stats returns a snapshot of the wrapper's counters.
func (w *Wrapper) Stats() Stats { return w.stats }

// RegisterMetrics registers the wrapper's counters under prefix
// ("smx3/tbc") in the unified registry.
func (w *Wrapper) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterStruct(prefix, &w.stats)
}

// onBlockEnd parks the warp at the block barrier, depositing its
// threads, and compacts once every running member has arrived. Full
// warps that branched uniformly continue without synchronizing.
//
//drslint:hotpath
func (w *Wrapper) onBlockEnd(s *simt.SMX, warp, block int, lanes []int, targets []int) bool {
	uniform := true
	for _, t := range targets[1:] {
		if t != targets[0] {
			uniform = false
			break
		}
	}
	if uniform && len(lanes) >= w.warpSize*3/4 {
		return false // keep running at full occupancy
	}
	tb := &w.blocks[w.warpBlock[warp]]
	wp := s.Warp(warp)
	slots := wp.Slots()
	for i, l := range lanes {
		w.push(tb, targets[i], l, slots[l])
	}
	w.park(tb, warp, s.Cycle())
	wp.Park()
	w.stats.Syncs++
	// Compact once half the block has synchronized (enough arrivals to
	// aggregate threads), or when nothing is left running.
	if tb.running == 0 || tb.parked*3 >= len(tb.warps) {
		w.compact(s, tb)
	}
	return true
}

// onWarpDone re-parks retired warps so compaction can hand them the
// block's remaining pending threads; a block whose last running warp
// retires can then compact.
//
//drslint:hotpath
func (w *Wrapper) onWarpDone(s *simt.SMX, warp int) {
	if !w.running[warp] {
		return
	}
	tb := &w.blocks[w.warpBlock[warp]]
	w.park(tb, warp, s.Cycle())
	if tb.running == 0 {
		w.compact(s, tb)
	}
}

// park moves a member warp from running (if it was) to the barrier,
// stamping the cycle it arrived.
func (w *Wrapper) park(tb *tblock, warp int, now int64) {
	if w.running[warp] {
		w.running[warp] = false
		tb.running--
	}
	if w.parkedAt[warp] == notParked {
		tb.parked++
	}
	w.parkedAt[warp] = now
}

// column returns the tops of target t's lane columns, capacity-clipped
// to the warp width.
func (w *Wrapper) column(tb *tblock, t int) []int32 {
	return tb.heads[t*w.warpSize : (t+1)*w.warpSize : (t+1)*w.warpSize]
}

// push deposits slot on top of target t's lane-l column. The slot comes
// from lane l of a warp that is parking: a thread is in exactly one
// place (a warp lane or a column), so no column holds slot now, its
// link is free, and the columns together never hold more threads than
// the kernel has slots — the bound that sizes next.
func (w *Wrapper) push(tb *tblock, t, l int, slot int32) {
	col := w.column(tb, t)
	w.next[slot] = col[l]
	col[l] = slot
	tb.npend[t]++
	tb.pending++
}

// pop takes the top of target t's lane-l column, or returns -1 when it
// is empty.
func (w *Wrapper) pop(tb *tblock, t, l int) int32 {
	col := w.column(tb, t)
	slot := col[l]
	if slot < 0 {
		return -1
	}
	col[l] = w.next[slot]
	tb.npend[t]--
	tb.pending--
	return slot
}

// depth returns the deepest of target t's lane columns: the warps its
// threads need under the lane-alignment constraint of a per-SIMD-lane
// register file.
func (w *Wrapper) depth(tb *tblock, t int) int {
	need := 0
	for _, top := range w.column(tb, t) {
		n := 0
		for slot := top; slot >= 0; slot = w.next[slot] {
			n++
		}
		need = max(need, n)
	}
	return need
}

// compact forms lane-aligned warps for the pending targets (largest
// first) and resumes parked warps with them, lowest warp id first.
// Targets that do not fit in the available warps stay pending until
// the next barrier.
//
//drslint:hotpath
func (w *Wrapper) compact(s *simt.SMX, tb *tblock) {
	if tb.parked == 0 {
		return
	}
	// Targets ordered by pending thread count, descending; target ids
	// are unique, so the order is total.
	order := w.order[:0]
	for t, n := range tb.npend {
		if n > 0 {
			order = append(order, tcount{t, int(n)})
		}
	}
	slices.SortFunc(order, func(a, b tcount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.target, b.target)
	})

	now := s.Cycle()
	cand := 0 // tb.warps index at or below the lowest parked warp
	drain := tb.running == 0
	for _, tc := range order {
		if tb.parked == 0 {
			break
		}
		// Before the drain phase, only spend warps on targets with a
		// full warp's worth of threads; thin targets keep aggregating.
		if !drain && tc.n < w.warpSize {
			continue
		}
		// Each formed warp takes the top of every lane's column, so the
		// threads consumed are the top `formed` of each.
		formed := min(w.depth(tb, tc.target), tb.parked)
		for i := 0; i < formed; i++ {
			for l := range w.lanes {
				w.lanes[l] = w.pop(tb, tc.target, l)
			}
			for w.parkedAt[tb.warps[cand]] == notParked {
				cand++
			}
			wid := tb.warps[cand]
			s.AddBarrierStall(now - w.parkedAt[wid])
			s.Warp(wid).Resume(w.lanes, tc.target)
			w.parkedAt[wid] = notParked
			tb.parked--
			w.running[wid] = true
			tb.running++
			w.stats.WarpsFormed++
		}
	}
	w.stats.Compactions++
	if tb.running > 0 || tb.pending > 0 {
		return
	}
	// Nothing was formed, nothing runs and nothing is pending: the
	// block is out of work; retire the remaining parked warps.
	for l := range w.lanes {
		w.lanes[l] = -1
	}
	for _, wid := range tb.warps {
		if w.parkedAt[wid] != notParked {
			s.Warp(wid).Resume(w.lanes, 0)
			w.parkedAt[wid] = notParked
			tb.parked--
		}
	}
}
