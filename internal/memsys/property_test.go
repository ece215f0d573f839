package memsys

import (
	"math/rand"
	"testing"
)

// refCache is an obviously-correct set-associative LRU cache used to
// cross-check the production cache's hit/miss decisions.
type refCache struct {
	sets      map[uint64][]uint64 // set -> lines in LRU order (front = MRU)
	assoc     int
	numSets   uint64
	lineBytes uint64
}

func newRefCache(totalKB, assoc, lineBytes int) *refCache {
	lines := totalKB * 1024 / lineBytes
	return &refCache{
		sets:      make(map[uint64][]uint64),
		assoc:     assoc,
		numSets:   uint64(lines / assoc),
		lineBytes: uint64(lineBytes),
	}
}

func (c *refCache) access(addr uint64) bool {
	line := addr / c.lineBytes
	set := line % c.numSets
	lines := c.sets[set]
	for i, l := range lines {
		if l == line {
			copy(lines[1:i+1], lines[:i])
			lines[0] = line
			return true
		}
	}
	lines = append([]uint64{line}, lines...)
	if len(lines) > c.assoc {
		lines = lines[:c.assoc]
	}
	c.sets[set] = lines
	return false
}

// Property: the production cache agrees with the reference on every
// access of random address streams with varying locality.
func TestCacheMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.L1TexKB = 4 + rnd.Intn(3)*4
		cfg.L1Assoc = 1 + rnd.Intn(4)
		m := NewSMXMem(cfg, NewOrderedL2(cfg, 1), 0)
		ref := newRefCache(cfg.L1TexKB, cfg.L1Assoc, cfg.LineBytes)
		footprint := uint64(16*1024 + rnd.Intn(256*1024))
		for i := 0; i < 30_000; i++ {
			var addr uint64
			if rnd.Intn(3) == 0 {
				addr = uint64(rnd.Intn(4096)) // hot region
			} else {
				addr = uint64(rnd.Int63()) % footprint
			}
			wantHit := ref.access(addr)
			lat, _ := m.accessLine(Tex, addr)
			gotHit := lat == cfg.L1HitLat
			if gotHit != wantHit {
				t.Fatalf("seed %d access %d addr %#x: hit=%v, reference=%v",
					seed, i, addr, gotHit, wantHit)
			}
		}
	}
}

// Property: warp access latency is monotone in the number of distinct
// lines touched (more transactions can never be faster, all-warm).
func TestWarpAccessMonotoneInLines(t *testing.T) {
	cfg := DefaultConfig()
	m := NewSMXMem(cfg, NewOrderedL2(cfg, 1), 0)
	// Warm every line we will use.
	for i := 0; i < 64; i++ {
		m.accessLine(Data, uint64(i)*128)
	}
	prev := -1
	for n := 1; n <= 32; n++ {
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(i) * 128
		}
		r := m.WarpAccessEx(Data, addrs, 4)
		lat, txns := r.Latency, r.Transactions
		if txns != n {
			t.Fatalf("n=%d: txns=%d", n, txns)
		}
		if lat < prev {
			t.Fatalf("n=%d: latency %d dropped below %d", n, lat, prev)
		}
		prev = lat
	}
}
