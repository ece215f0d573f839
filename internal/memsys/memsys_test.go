package memsys

import (
	"math/rand"
	"testing"
)

func newTestMem() (*SMXMem, *OrderedL2) {
	cfg := DefaultConfig()
	l2 := NewOrderedL2(cfg, 1)
	return NewSMXMem(cfg, l2, 0), l2
}

// accessNow performs one line access as a one-request epoch: it drains
// the L2 right away and returns the resolved latency, DRAM round trip
// included when the line missed the L2.
func accessNow(m *SMXMem, l2 *OrderedL2, space Space, addr uint64) int {
	lat, _ := m.accessLine(space, addr)
	p := m.Port()
	if p.Pending() > 0 {
		l2.Drain()
		if p.AnyMissed(0, p.Pending()) {
			lat += m.cfg.DRAMLat
		}
		p.Reset()
	}
	return lat
}

func TestColdMissThenHit(t *testing.T) {
	m, l2 := newTestMem()
	lat1 := accessNow(m, l2, Tex, 0x1000)
	lat2 := accessNow(m, l2, Tex, 0x1000)
	if lat1 <= lat2 {
		t.Errorf("cold access (%d) should be slower than warm (%d)", lat1, lat2)
	}
	if lat2 != DefaultConfig().L1HitLat {
		t.Errorf("warm latency = %d, want L1 hit %d", lat2, DefaultConfig().L1HitLat)
	}
}

func TestSameLineIsHit(t *testing.T) {
	m, _ := newTestMem()
	m.accessLine(Data, 0x2000)
	if lat, _ := m.accessLine(Data, 0x2000+64); lat != DefaultConfig().L1HitLat {
		t.Errorf("same-line access missed: %d", lat)
	}
}

func TestSpacesAreSeparateL1s(t *testing.T) {
	m, l2 := newTestMem()
	accessNow(m, l2, Tex, 0x3000)
	// Data access to the same address must miss L1D but hit the shared L2.
	lat := accessNow(m, l2, Data, 0x3000)
	cfg := DefaultConfig()
	if lat != cfg.L1HitLat+cfg.L2HitLat {
		t.Errorf("cross-space latency = %d, want L2 hit %d", lat, cfg.L1HitLat+cfg.L2HitLat)
	}
}

func TestL2SharedAcrossSMXs(t *testing.T) {
	cfg := DefaultConfig()
	l2 := NewOrderedL2(cfg, 2)
	a := NewSMXMem(cfg, l2, 0)
	b := NewSMXMem(cfg, l2, 1)
	accessNow(a, l2, Tex, 0x9000)
	lat := accessNow(b, l2, Tex, 0x9000)
	if lat != cfg.L1HitLat+cfg.L2HitLat {
		t.Errorf("expected L2 hit via sibling SMX, got %d", lat)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1TexKB = 1 // 8 lines of 128B
	cfg.L1Assoc = 2
	m := NewSMXMem(cfg, NewOrderedL2(cfg, 1), 0)
	// Fill one set beyond associativity: lines mapping to set 0.
	// numSets = 8/2 = 4; stride between same-set lines = 4*128.
	stride := uint64(4 * 128)
	m.accessLine(Tex, 0)
	m.accessLine(Tex, stride)
	m.accessLine(Tex, 2*stride) // evicts line 0
	st := m.L1Stats(Tex)
	if st.Misses != 3 {
		t.Fatalf("expected 3 cold misses, got %d", st.Misses)
	}
	m.accessLine(Tex, 0) // must miss again (evicted)
	if got := m.L1Stats(Tex).Misses; got != 4 {
		t.Errorf("expected LRU eviction miss, misses = %d", got)
	}
	m.accessLine(Tex, 2*stride) // still resident
	if got := m.L1Stats(Tex).Misses; got != 4 {
		t.Errorf("MRU line evicted unexpectedly, misses = %d", got)
	}
}

func TestWarpAccessCoalescing(t *testing.T) {
	m, _ := newTestMem()
	// 32 threads touching consecutive 4-byte words in one 128B line.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x4000 + uint64(i*4)
	}
	txns := m.WarpAccessEx(Data, addrs, 4).Transactions
	if txns != 1 {
		t.Errorf("fully coalesced access took %d transactions", txns)
	}
	// 32 threads touching 32 distinct lines.
	for i := range addrs {
		addrs[i] = 0x100000 + uint64(i)*128*7
	}
	txns = m.WarpAccessEx(Data, addrs, 4).Transactions
	if txns != 32 {
		t.Errorf("scattered access coalesced to %d transactions", txns)
	}
}

func TestWarpAccessStraddlesLines(t *testing.T) {
	m, _ := newTestMem()
	// A 64-byte object starting 32 bytes before a line boundary spans 2 lines.
	addrs := []uint64{128 - 32}
	txns := m.WarpAccessEx(Tex, addrs, 64).Transactions
	if txns != 2 {
		t.Errorf("straddling access = %d transactions, want 2", txns)
	}
}

func TestWarpAccessLatencyGrowsWithTxns(t *testing.T) {
	m, _ := newTestMem()
	one := []uint64{0}
	lat1 := m.WarpAccessEx(Tex, one, 4).Latency
	var scattered []uint64
	for i := 0; i < 16; i++ {
		scattered = append(scattered, uint64(0x200000+i*128*5))
	}
	lat2 := m.WarpAccessEx(Tex, scattered, 4).Latency
	if lat2 <= lat1 {
		t.Errorf("scattered warp access (%d) not slower than unit (%d)", lat2, lat1)
	}
}

func TestWarpAccessEmpty(t *testing.T) {
	m, _ := newTestMem()
	r := m.WarpAccessEx(Data, nil, 4)
	lat, txns := r.Latency, r.Transactions
	if lat != 0 || txns != 0 {
		t.Errorf("empty access = %d cycles %d txns", lat, txns)
	}
}

func TestStatsAndHitRate(t *testing.T) {
	m, _ := newTestMem()
	m.accessLine(Tex, 0)
	m.accessLine(Tex, 0)
	m.accessLine(Tex, 0)
	st := m.L1Stats(Tex)
	if st.Accesses != 3 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if hr := st.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v", hr)
	}
	var empty CacheStats
	if empty.HitRate() != 0 {
		t.Errorf("empty stats rates nonzero")
	}
}

func TestSmallerCacheMissesMore(t *testing.T) {
	// Sensitivity property behind the paper's backup-row thrashing
	// observation: a smaller working set fits, a bigger one thrashes.
	run := func(kb int) float64 {
		cfg := DefaultConfig()
		cfg.L1TexKB = kb
		m := NewSMXMem(cfg, NewOrderedL2(cfg, 1), 0)
		rnd := rand.New(rand.NewSource(1))
		const footprint = 96 * 1024
		for i := 0; i < 20000; i++ {
			m.accessLine(Tex, uint64(rnd.Intn(footprint)))
		}
		return 1 - m.L1Stats(Tex).HitRate()
	}
	small := run(16)
	large := run(128)
	if small <= large {
		t.Errorf("16KB miss rate %v not worse than 128KB %v", small, large)
	}
}

func TestNilL2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for nil L2")
		}
	}()
	NewSMXMem(DefaultConfig(), nil, 0)
}

func TestL2StatsSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	l2 := NewOrderedL2(cfg, 1)
	m := NewSMXMem(cfg, l2, 0)
	accessNow(m, l2, Tex, 0x5000)
	if l2.Stats().Accesses != 1 {
		t.Errorf("L2 accesses = %d", l2.Stats().Accesses)
	}
	accessNow(m, l2, Tex, 0x5000) // L1 hit: must not touch L2
	if l2.Stats().Accesses != 1 {
		t.Errorf("L1 hit leaked to L2")
	}
}
