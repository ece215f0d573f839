package memsys

import (
	"encoding/binary"
	"testing"
)

// decodeAccess turns fuzz bytes into one warp memory access: a space,
// an access size, and up to a warp's worth of lane addresses. The size
// is bounded so a single access spans at most a few cache lines, as
// real kernel accesses do; address bits are taken raw to explore the
// full line/set/tag space.
func decodeAccess(data []byte) (space Space, addrs []uint64, size uint32) {
	if len(data) < 3 {
		return Tex, nil, 0
	}
	space = Tex
	if data[0]&1 == 1 {
		space = Data
	}
	size = uint32(binary.LittleEndian.Uint16(data[1:3])) % 1025 // 0..1024
	data = data[3:]
	for len(data) >= 8 && len(addrs) < 32 {
		addrs = append(addrs, binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
	}
	return space, addrs, size
}

// refLineCount computes the number of distinct lines the access
// touches, capped at the coalescer's 64-transaction buffer, with a map
// instead of the coalescer's scan — an independent oracle.
func refLineCount(addrs []uint64, size uint32, lineBytes int) int {
	if size == 0 {
		size = 1
	}
	lb := uint64(lineBytes)
	seen := make(map[uint64]bool)
	for _, a := range addrs {
		if len(seen) >= 64 {
			break
		}
		first := a / lb
		end := a + uint64(size) - 1
		if end < a {
			end = ^uint64(0)
		}
		last := end / lb
		for l := first; l <= last && len(seen) < 64; l++ {
			seen[l] = true
		}
	}
	return len(seen)
}

// FuzzWarpCoalesce drives the per-warp coalescer with arbitrary lane
// address vectors and access sizes, checking the invariants the engine
// relies on: transaction counts match an independent line count,
// latencies are bounded by the declared worst case, pending-request
// bookkeeping is consistent with the port queue and the drain, and the
// whole computation is deterministic.
func FuzzWarpCoalesce(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x00, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x01, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0}) // zero-size access
	// A strided warp: 32 lanes, 128B apart (one line each).
	strided := []byte{0x00, 0x04, 0x00}
	for i := 0; i < 32; i++ {
		var a [8]byte
		binary.LittleEndian.PutUint64(a[:], uint64(i)*128)
		strided = append(strided, a[:]...)
	}
	f.Add(strided)
	// Lane addresses near the top of the address space (line-span
	// arithmetic must not wrap).
	high := []byte{0x01, 0xff, 0xff}
	for i := 0; i < 4; i++ {
		var a [8]byte
		binary.LittleEndian.PutUint64(a[:], ^uint64(0)-uint64(i)*64)
		high = append(high, a[:]...)
	}
	f.Add(high)

	f.Fuzz(func(t *testing.T, data []byte) {
		space, addrs, size := decodeAccess(data)
		cfg := DefaultConfig()

		o := NewOrderedL2(cfg, 1)
		m := NewSMXMem(cfg, o, 0)
		r := m.WarpAccessEx(space, addrs, size)

		if len(addrs) == 0 {
			if r != (AccessResult{}) {
				t.Fatalf("empty warp produced work: %+v", r)
			}
			return
		}
		want := refLineCount(addrs, size, cfg.LineBytes)
		if r.Transactions != want {
			t.Fatalf("%d transactions, reference says %d", r.Transactions, want)
		}
		if r.Latency < cfg.L1HitLat {
			t.Fatalf("latency %d below L1 hit latency %d", r.Latency, cfg.L1HitLat)
		}
		if r.Latency > r.MissLatency {
			t.Fatalf("latency %d exceeds declared worst case %d", r.Latency, r.MissLatency)
		}
		// Bookkeeping: the pending run must exactly cover the port
		// queue, and resolving it must not panic.
		port := m.Port()
		if r.PendingCount != port.Pending() || r.PendingFirst != 0 {
			t.Fatalf("pending run [%d,+%d) inconsistent with port queue of %d",
				r.PendingFirst, r.PendingCount, port.Pending())
		}
		if r.PendingCount > r.Transactions {
			t.Fatalf("%d pending requests from %d transactions", r.PendingCount, r.Transactions)
		}
		o.Drain()
		missed := port.AnyMissed(r.PendingFirst, r.PendingCount)
		// A fresh L2 cannot hit on a first access: every queued line missed.
		if r.PendingCount > 0 && !missed {
			t.Fatal("cold L2 reported a hit for a first-touch line")
		}
		if got := o.Stats().Accesses; got != int64(r.PendingCount) {
			t.Fatalf("L2 saw %d accesses, expected the %d queued", got, r.PendingCount)
		}
		port.Reset()
		if port.Pending() != 0 {
			t.Fatal("Reset left requests queued")
		}

		// Determinism: replaying the access on fresh state reproduces the
		// result and the cache counters bit for bit.
		o2 := NewOrderedL2(cfg, 1)
		m2 := NewSMXMem(cfg, o2, 0)
		if r2 := m2.WarpAccessEx(space, addrs, size); r2 != r {
			t.Fatalf("replay diverged: %+v vs %+v", r2, r)
		}
		o2.Drain()
		if m2.L1DataStats() != m.L1DataStats() || m2.L1TexStats() != m.L1TexStats() ||
			m2.Transactions() != m.Transactions() || o2.Stats() != o.Stats() {
			t.Fatal("replay cache counters diverged")
		}
	})
}
