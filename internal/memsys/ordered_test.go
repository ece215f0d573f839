package memsys

import (
	"math/rand"
	"testing"
)

// smallL2Config returns a tiny L2 so modest request streams cause real
// evictions.
func smallL2Config() Config {
	cfg := DefaultConfig()
	cfg.L2KB = 16
	cfg.L2Assoc = 2
	return cfg
}

// genStreams builds per-SMX request streams sliced into epochs:
// streams[smx][epoch] is the ordered address list that SMX issues in
// that epoch. Addresses are drawn from a footprint a few times the L2
// so hit/miss decisions depend on LRU and eviction history.
func genStreams(rnd *rand.Rand, smxs, epochs, perEpoch int, cfg Config) [][][]uint64 {
	footprint := int64(cfg.L2KB) * 1024 * 4
	streams := make([][][]uint64, smxs)
	for s := range streams {
		streams[s] = make([][]uint64, epochs)
		for e := range streams[s] {
			reqs := make([]uint64, rnd.Intn(perEpoch+1))
			for i := range reqs {
				reqs[i] = uint64(rnd.Int63n(footprint)) &^ uint64(cfg.LineBytes-1)
			}
			streams[s][e] = reqs
		}
	}
	return streams
}

// drainDecisions runs the full stream through an OrderedL2, one Drain
// per epoch, enqueueing the SMX queues in the given per-epoch SMX
// visit order (which simulates goroutine scheduling: who fills their
// port first). It returns each request's miss decision keyed by
// (smx, epoch, index) — which must not depend on the visit order.
func drainDecisions(cfg Config, streams [][][]uint64, order func(epoch int) []int) map[[3]int]bool {
	smxs := len(streams)
	o := NewOrderedL2(cfg, smxs)
	dec := make(map[[3]int]bool)
	epochs := len(streams[0])
	for e := 0; e < epochs; e++ {
		for _, s := range order(e) {
			p := o.Port(s)
			for _, addr := range streams[s][e] {
				p.enqueue(addr)
			}
		}
		o.Drain()
		for s := 0; s < smxs; s++ {
			p := o.Port(s)
			for i := 0; i < p.Pending(); i++ {
				dec[[3]int{s, e, i}] = p.reqs[i].miss
			}
			p.Reset()
		}
	}
	return dec
}

// Property: the enqueue interleaving across SMXs within an epoch (the
// part goroutine scheduling controls) must not change any per-request
// hit/miss decision — the barrier drain serializes every epoch into
// the fixed (smxID, issue-order) order.
func TestOrderedDrainScheduleIndependent(t *testing.T) {
	cfg := smallL2Config()
	rnd := rand.New(rand.NewSource(42))
	streams := genStreams(rnd, 5, 20, 40, cfg)

	identity := func(int) []int { return []int{0, 1, 2, 3, 4} }
	ref := drainDecisions(cfg, streams, identity)

	for trial := 0; trial < 10; trial++ {
		perm := func(int) []int {
			p := rnd.Perm(5)
			return p
		}
		got := drainDecisions(cfg, streams, perm)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d decisions, want %d", trial, len(got), len(ref))
		}
		for k, miss := range ref {
			if got[k] != miss {
				t.Fatalf("trial %d: request smx=%d epoch=%d idx=%d decided miss=%v, want %v",
					trial, k[0], k[1], k[2], got[k], miss)
			}
		}
	}
}

// Property: the ordered drain is equivalent to a sequential replay of
// the same requests in canonical (epoch, smxID, issue-order) order
// against a plain cache — the drain adds concurrency, not semantics.
func TestOrderedDrainMatchesSequentialReplay(t *testing.T) {
	cfg := smallL2Config()
	rnd := rand.New(rand.NewSource(7))
	streams := genStreams(rnd, 4, 15, 30, cfg)

	ref := drainDecisions(cfg, streams, func(int) []int { return []int{0, 1, 2, 3} })

	seq := newCache(cfg.L2KB, cfg.L2Assoc, cfg.LineBytes)
	for e := 0; e < len(streams[0]); e++ {
		for s := range streams {
			for i, addr := range streams[s][e] {
				miss := !seq.access(addr)
				if ref[[3]int{s, e, i}] != miss {
					t.Fatalf("request smx=%d epoch=%d idx=%d: drain miss=%v, sequential replay miss=%v",
						s, e, i, ref[[3]int{s, e, i}], miss)
				}
			}
		}
	}
}

// The drain must also leave deterministic aggregate stats, and ports
// must report pending counts and reset correctly.
func TestOrderedL2PortLifecycle(t *testing.T) {
	cfg := smallL2Config()
	o := NewOrderedL2(cfg, 2)
	if o.NumPorts() != 2 {
		t.Fatalf("NumPorts = %d, want 2", o.NumPorts())
	}
	p := o.Port(1)
	first := p.enqueue(0x0)
	p.enqueue(0x80)
	p.enqueue(0x0)
	if p.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", p.Pending())
	}
	o.Drain()
	// Cold cache: first two accesses miss, the repeat of line 0 hits.
	if !p.AnyMissed(first, 2) {
		t.Error("cold accesses did not miss")
	}
	if p.AnyMissed(first+2, 1) {
		t.Error("repeated line reported as missed")
	}
	st := o.Stats()
	if st.Accesses != 3 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 3 accesses / 2 misses", st)
	}
	if o.drains != 1 {
		t.Errorf("drains = %d, want 1", o.drains)
	}
	p.Reset()
	if p.Pending() != 0 {
		t.Errorf("pending after reset = %d", p.Pending())
	}
}
