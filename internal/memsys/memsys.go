// Package memsys models the GPU memory hierarchy of the simulated
// GTX780-class device: per-SMX L1 data and L1 texture caches, a shared
// L2, and a fixed-latency DRAM behind it. The traversal kernels access
// BVH nodes and triangles through the L1 texture cache (as in Aila's
// kernel) and ray records through the L1 data cache.
package memsys

import (
	"fmt"

	"repro/internal/metrics"
)

// Space identifies which path a memory access takes.
type Space uint8

// Memory spaces used by the kernels.
const (
	// Tex accesses go through the L1 texture cache (BVH nodes and
	// triangles in Aila's kernel layout).
	Tex Space = iota
	// Data accesses go through the L1 data cache (ray records, hit
	// records, pool counters).
	Data
)

// Config holds the hierarchy parameters (Table 1 of the paper plus
// standard Kepler latencies).
type Config struct {
	LineBytes int // cache line size

	L1DataKB    int
	L1TexKB     int
	L1Assoc     int
	L2KB        int // total, shared across SMXs
	L2Assoc     int
	L1HitLat    int // cycles from issue to data for an L1 hit
	L2HitLat    int // additional cycles for an L1 miss that hits L2
	DRAMLat     int // additional cycles for an L2 miss
	TxCycles    int // extra cycles per additional coalesced transaction
	NumSMX      int // number of SMXs sharing the L2
	L2SliceMask int // internal: derived
}

// DefaultConfig returns the GTX780 parameters used by the paper
// (Table 1): 48KB L1 data, 48KB L1 texture, 1536KB L2, 15 SMXs.
func DefaultConfig() Config {
	return Config{
		LineBytes: 128,
		L1DataKB:  48,
		L1TexKB:   48,
		L1Assoc:   6,
		L2KB:      1536,
		L2Assoc:   16,
		L1HitLat:  28,
		L2HitLat:  170,
		DRAMLat:   250,
		TxCycles:  4,
		NumSMX:    15,
	}
}

// CacheStats counts accesses and misses.
type CacheStats struct {
	Accesses int64
	Misses   int64
}

// HitRate returns the fraction of accesses that hit.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 - float64(s.Misses)/float64(s.Accesses)
}

// cache is a set-associative cache with LRU replacement, tracked at
// line-tag granularity (no data storage — the simulator only needs
// hit/miss behaviour).
type cache struct {
	sets      [][]uint64 // per-set tag list in LRU order (front = MRU)
	assoc     int
	numSets   int
	lineShift uint
	stats     CacheStats
}

func newCache(totalKB, assoc, lineBytes int) *cache {
	lines := totalKB * 1024 / lineBytes
	if assoc <= 0 {
		assoc = 4
	}
	numSets := lines / assoc
	if numSets < 1 {
		numSets = 1
	}
	shift := uint(0)
	for (1 << shift) < lineBytes {
		shift++
	}
	sets := make([][]uint64, numSets)
	for i := range sets {
		sets[i] = make([]uint64, 0, assoc)
	}
	return &cache{sets: sets, assoc: assoc, numSets: numSets, lineShift: shift}
}

// access looks up the line containing addr, updating LRU state, and
// reports whether it hit.
func (c *cache) access(addr uint64) bool {
	line := addr >> c.lineShift
	set := c.sets[line%uint64(c.numSets)]
	c.stats.Accesses++
	for i, tag := range set {
		if tag == line {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	c.stats.Misses++
	if len(set) < c.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	c.sets[line%uint64(c.numSets)] = set
	return false
}

// ReqID identifies one request within an L2Port's current epoch queue.
type ReqID int32

// l2Req is one queued (and, after a drain, resolved) L2 line request —
// the replayable record the ordered drain consumes.
type l2Req struct {
	addr uint64
	miss bool
}

// L2Port is one SMX's private, ordered access point to the shared L2.
// During an epoch the owning SMX (single goroutine) appends its
// L2-bound line requests; at the epoch barrier OrderedL2.Drain applies
// every port's queue to the cache in fixed (smxID, issue-order) order
// and records each request's hit/miss outcome, which the SMX then reads
// back via AnyMissed. No locking anywhere: the port is written by one
// goroutine during the epoch and read/drained only at the barrier.
type L2Port struct {
	smxID int
	reqs  []l2Req
}

// enqueue records one L2-bound line request and returns its id within
// the current epoch.
func (p *L2Port) enqueue(addr uint64) ReqID {
	p.reqs = append(p.reqs, l2Req{addr: addr})
	return ReqID(len(p.reqs) - 1)
}

// AnyMissed reports whether any of the count requests starting at first
// missed the L2 at the last drain.
func (p *L2Port) AnyMissed(first ReqID, count int) bool {
	for i := first; i < first+ReqID(count); i++ {
		if p.reqs[i].miss {
			return true
		}
	}
	return false
}

// Pending returns the number of requests queued this epoch.
func (p *L2Port) Pending() int { return len(p.reqs) }

// Reset clears the epoch queue (after the owner has consumed the
// resolutions), retaining capacity.
func (p *L2Port) Reset() { p.reqs = p.reqs[:0] }

// OrderedL2 is the deterministic shared L2 of the epoch-barrier engine.
// SMXs never touch the cache directly: they enqueue line requests on
// their private L2Port during an epoch, and the engine calls Drain at
// the barrier, which applies all queues in fixed (smxID, issue-order)
// round-robin so hits, misses and evictions are identical on every run
// regardless of goroutine scheduling.
type OrderedL2 struct {
	c      *cache
	ports  []*L2Port
	drains int64
}

// NewOrderedL2 builds the ordered L2 with one port per SMX. numSMX is
// the device's SMX count (which may differ from cfg.NumSMX in scaled-
// down runs).
func NewOrderedL2(cfg Config, numSMX int) *OrderedL2 {
	if numSMX <= 0 {
		numSMX = 1
	}
	o := &OrderedL2{
		c:     newCache(cfg.L2KB, cfg.L2Assoc, cfg.LineBytes),
		ports: make([]*L2Port, numSMX),
	}
	for i := range o.ports {
		o.ports[i] = &L2Port{smxID: i}
	}
	return o
}

// Port returns SMX smxID's request port.
func (o *OrderedL2) Port(smxID int) *L2Port { return o.ports[smxID] }

// NumPorts returns the number of per-SMX ports.
func (o *OrderedL2) NumPorts() int { return len(o.ports) }

// Drain resolves every queued request against the cache in (smxID,
// issue-order) order. The engine calls it at the epoch barrier, with no
// SMX goroutine running; it must not race with enqueues.
//
//drslint:hotpath
func (o *OrderedL2) Drain() {
	for _, p := range o.ports {
		o.drainPort(p)
	}
	o.drains++
}

// DrainPort resolves only SMX smxID's queue, in issue order. A
// standalone SMX (SMX.Run/RunFor, outside the device engine) drains
// this way, so it never resolves requests queued by other SMXs.
func (o *OrderedL2) DrainPort(smxID int) { o.drainPort(o.ports[smxID]) }

func (o *OrderedL2) drainPort(p *L2Port) {
	for i := range p.reqs {
		p.reqs[i].miss = !o.c.access(p.reqs[i].addr)
	}
}

// Stats returns a snapshot of the L2 counters.
func (o *OrderedL2) Stats() CacheStats { return o.c.stats }

// RegisterMetrics registers the ordered L2's counters under prefix
// ("l2"): the shared cache's accesses and misses plus the epoch drain
// count. Probes read the live fields; the engine samples them only at
// barriers, when no SMX goroutine runs.
func (o *OrderedL2) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+"/accesses", &o.c.stats.Accesses)
	reg.Counter(prefix+"/misses", &o.c.stats.Misses)
	reg.Counter(prefix+"/drains", &o.drains)
}

// SMXMem is the per-SMX view of the hierarchy: private L1s over the
// shared L2. An L1 miss queues its line on the SMX's L2 port; the
// ordered L2 resolves the queue at the next drain.
type SMXMem struct {
	cfg  Config
	l1d  *cache
	l1t  *cache
	port *L2Port
	txns int64
}

// NewSMXMem creates SMX smxID's private caches, attached to its port on
// the ordered L2.
func NewSMXMem(cfg Config, l2 *OrderedL2, smxID int) *SMXMem {
	if l2 == nil {
		panic("memsys: nil shared L2")
	}
	return &SMXMem{
		cfg:  cfg,
		l1d:  newCache(cfg.L1DataKB, cfg.L1Assoc, cfg.LineBytes),
		l1t:  newCache(cfg.L1TexKB, cfg.L1Assoc, cfg.LineBytes),
		port: l2.Port(smxID),
	}
}

// accessLine performs one transaction for the line containing addr in
// the given space and returns its latency in cycles, and whether it was
// queued on the L2 port (an L1 miss) rather than resolved. A queued
// line's latency is provisional: it assumes an L2 hit.
func (m *SMXMem) accessLine(space Space, addr uint64) (lat int, queued bool) {
	m.txns++
	l1 := m.l1d
	if space == Tex {
		l1 = m.l1t
	}
	if l1.access(addr) {
		return m.cfg.L1HitLat, false
	}
	m.port.enqueue(addr)
	return m.cfg.L1HitLat + m.cfg.L2HitLat, true
}

// AccessResult describes one coalesced warp memory access.
type AccessResult struct {
	// Latency is the warp's stall in cycles. If PendingCount > 0 it is
	// provisional: it assumes every queued L2 request hits, and the
	// engine must raise the warp's ready cycle to issue+MissLatency at
	// the epoch barrier if any of them missed.
	Latency int
	// MissLatency is the warp latency if at least one pending request
	// misses the L2 (the DRAM round trip dominates every resolved line).
	MissLatency int
	// Transactions is the number of coalesced line transactions.
	Transactions int
	// PendingFirst and PendingCount identify the contiguous run of
	// requests this access queued on the SMX's L2 port; PendingCount is
	// 0 when the access resolved entirely in the private tier.
	PendingFirst ReqID
	PendingCount int
}

// WarpAccessEx coalesces the addresses of one warp memory instruction
// into line transactions and returns the total warp latency, the number
// of transactions and the requests queued on the L2 port. Latency is
// the max single-transaction latency plus a serialization cost per
// extra transaction, matching the stall-until-complete model the
// engine uses; it is provisional (see AccessResult).
func (m *SMXMem) WarpAccessEx(space Space, addrs []uint64, bytes uint32) AccessResult {
	if len(addrs) == 0 {
		return AccessResult{}
	}
	if bytes == 0 {
		// A zero-size access still touches its line; without this the
		// last-line computation below underflows at addr 0.
		bytes = 1
	}
	lineBytes := uint64(m.cfg.LineBytes)
	// Collect unique lines. Warp size is small, a slice scan is fast.
	var lines [64]uint64
	n := 0
	for _, a := range addrs {
		if n == len(lines) {
			break // transaction buffer full; further lines coalesce nowhere
		}
		first := a / lineBytes
		end := a + uint64(bytes) - 1
		if end < a {
			end = ^uint64(0) // saturate: the access runs to the top of the address space
		}
		last := end / lineBytes
		for l := first; l <= last && n < len(lines); l++ {
			dup := false
			for i := 0; i < n; i++ {
				if lines[i] == l {
					dup = true
					break
				}
			}
			if !dup {
				lines[n] = l
				n++
			}
		}
	}
	res := AccessResult{Transactions: n, PendingFirst: ReqID(m.port.Pending())}
	maxLat := 0
	for i := 0; i < n; i++ {
		lat, queued := m.accessLine(space, lines[i]*lineBytes)
		if lat > maxLat {
			maxLat = lat
		}
		if queued {
			res.PendingCount++
		}
	}
	serial := (n - 1) * m.cfg.TxCycles
	res.Latency = maxLat + serial
	res.MissLatency = m.cfg.L1HitLat + m.cfg.L2HitLat + m.cfg.DRAMLat + serial
	return res
}

// Port returns the SMX's ordered L2 port.
func (m *SMXMem) Port() *L2Port { return m.port }

// RegisterMetrics registers the SMX's private cache counters under
// prefix: prefix/l1d/{accesses,misses}, prefix/l1t/{accesses,misses},
// and prefix/transactions.
func (m *SMXMem) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+"/l1d/accesses", &m.l1d.stats.Accesses)
	reg.Counter(prefix+"/l1d/misses", &m.l1d.stats.Misses)
	reg.Counter(prefix+"/l1t/accesses", &m.l1t.stats.Accesses)
	reg.Counter(prefix+"/l1t/misses", &m.l1t.stats.Misses)
	reg.Counter(prefix+"/transactions", &m.txns)
}

// L1Stats returns a snapshot of the counters of the L1 cache that
// serves space.
func (m *SMXMem) L1Stats(space Space) CacheStats {
	if space == Tex {
		return m.l1t.stats
	}
	return m.l1d.stats
}

// String summarizes the SMX's cache behaviour.
func (m *SMXMem) String() string {
	return fmt.Sprintf("L1D %.1f%% hit, L1T %.1f%% hit, %d txns",
		m.l1d.stats.HitRate()*100, m.l1t.stats.HitRate()*100, m.txns)
}
