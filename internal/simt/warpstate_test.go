package simt

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/memsys"
)

// mixedMemKernel loops every slot through a block whose lanes emit
// different numbers of accesses, and different spaces and widths in
// the same memory slot, as WhileIf's settleAfterTraversal does: slot%3
// 0 emits nothing, 1 a 32-byte texture load, 2 a 16-byte data access
// and then a 64-byte texture load. The block then splits the warp, so
// part of it issues a second memory block whose space alternates by
// lane.
type mixedMemKernel struct {
	rounds int
	iter   []int
}

func newMixedMemKernel(slots, rounds int) *mixedMemKernel {
	return &mixedMemKernel{rounds: rounds, iter: make([]int, slots)}
}

func (k *mixedMemKernel) Blocks() []BlockInfo {
	return []BlockInfo{
		{Name: "mixed", Insts: 2, MemInsts: 2, Reconv: 3}, // 0
		{Name: "tail", Insts: 1, MemInsts: 1},             // 1
		{Name: "skip", Insts: 1},                          // 2
		{Name: "latch", Insts: 1},                         // 3: loop back or exit
	}
}

func (k *mixedMemKernel) Entry() int { return 0 }

func (k *mixedMemKernel) Step(slot int32, block int, res *StepResult) {
	s, it := uint64(slot), k.iter[slot]
	switch block {
	case 0:
		switch slot % 3 {
		case 1:
			res.NMem = 1
			res.Mem[0] = MemAccess{Addr: s*64 + uint64(it)*4096, Bytes: 32, Space: memsys.Tex}
		case 2:
			res.NMem = 2
			res.Mem[0] = MemAccess{Addr: 1<<20 + s*16, Bytes: 16, Space: memsys.Data}
			res.Mem[1] = MemAccess{Addr: 3<<20 + s*192 + uint64(it)*64, Bytes: 64, Space: memsys.Tex}
		}
		if (int(slot)+it)%4 == 0 {
			res.Next = 2
		} else {
			res.Next = 1
		}
	case 1:
		res.NMem = 1
		res.Mem[0] = MemAccess{Addr: 2<<20 + s*8, Bytes: 8, Space: memsys.Space(slot % 2)}
		res.Next = 3
	case 2:
		res.Next = 3
	case 3:
		k.iter[slot]++
		if k.iter[slot] < k.rounds {
			res.Next = 0
		} else {
			res.Next = BlockExit
		}
	}
}

// TestWarpStateScalesWithKernel pins the warp store's size at
// modern-big's per-SMX shape (64 warps of 32 lanes): per warp, its
// scalars, a slot and a successor per lane, k packed memory slots for a
// kernel whose largest block declares k memory instructions, and a
// 2*warpSize-1-entry stack window. The mixed kernel checks the packing
// is exact: its transactions, L1 accesses and cycles are the engine's
// before step results were packed.
func TestWarpStateScalesWithKernel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = 64
	n, wsz := cfg.MaxWarpsPerSMX, cfg.WarpSize
	for _, tc := range []struct {
		name   string
		kernel Kernel
		k      int
	}{
		{"one memory slot", memDivergeKernel{}, 1},
		{"two memory slots", newMixedMemKernel(n*wsz, 1), 2},
	} {
		s := newTestSMX(t, cfg, tc.kernel, Hooks{})
		if s.st.k != tc.k {
			t.Fatalf("%s: the store keeps %d memory slots per warp, want %d", tc.name, s.st.k, tc.k)
		}
		// The least of a few builds: other goroutines' allocations can
		// only add to one.
		got := uint64(1<<63 - 1)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			st := newWarpState(n, wsz, s.st.k)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(st)
			if d := after.TotalAlloc - before.TotalAlloc; d < got {
				got = d
			}
		}
		// The slack covers what the allocator adds at this shape: the
		// stack block rounds up to whole pages (+768 B), the pending
		// block's malloc header lifts it a size class (+256 B), and the
		// warpState struct itself takes 480 B. Each warp's k memory
		// slots come with its k-entry pending window.
		pending := int(unsafe.Sizeof(memPending{}))
		perWarp := 54 + 8*wsz + tc.k*(8*wsz+12+pending) + (2*wsz-1)*12
		limit := uint64(n*perWarp + 2<<10)
		t.Logf("%s: %d warps of %d lanes, k %d: the warp store allocated %d B (limit %d)", tc.name, n, wsz, tc.k, got, limit)
		if got > limit {
			t.Errorf("%s: the warp store allocated %d B, want at most %d", tc.name, got, limit)
		}
	}

	mixed := newTestSMX(t, smallConfig(8), newMixedMemKernel(8*32, 6), Hooks{})
	mixed.LaunchAll(0)
	st, err := mixed.Run()
	if err != nil {
		t.Fatal(err)
	}
	l1d, l1t := mixed.Mem().L1Stats(memsys.Data), mixed.Mem().L1Stats(memsys.Tex)
	if st.MemTransactions != mixedPin.txns || l1d.Accesses != mixedPin.l1d || l1t.Accesses != mixedPin.l1t || st.Cycles != mixedPin.cycles {
		t.Errorf("mixed kernel: %d transactions, %d L1D and %d L1T accesses, %d cycles; want %d, %d, %d, %d",
			st.MemTransactions, l1d.Accesses, l1t.Accesses, st.Cycles,
			mixedPin.txns, mixedPin.l1d, mixedPin.l1t, mixedPin.cycles)
	}
}

// mixedPin is what the mixed kernel measured on the engine that kept
// every lane's StepResult.
var mixedPin = struct{ txns, l1d, l1t, cycles int64 }{1320, 508, 812, 4009}

// peelKernel peels one lane per block off to a sink: chain block b
// sends lane b to the sink and every other lane to block b+1, and all
// lanes reconverge at the join. The sink's id is above every chain
// block, so each divergence pushes the sink's entry first and the
// chain stays on top.
type peelKernel struct{ width int }

func (k peelKernel) Blocks() []BlockInfo {
	blocks := make([]BlockInfo, k.width+2)
	for b := 0; b < k.width; b++ {
		blocks[b] = BlockInfo{Name: "chain", Insts: 1, Reconv: k.width + 1}
	}
	blocks[k.width] = BlockInfo{Name: "sink", Insts: 1}
	blocks[k.width+1] = BlockInfo{Name: "join", Insts: 1}
	return blocks
}

func (k peelKernel) Entry() int { return 0 }

func (k peelKernel) Step(slot int32, block int, res *StepResult) {
	switch {
	case block == k.width+1: // join
		res.Next = BlockExit
	case block == k.width: // sink
		res.Next = k.width + 1
	case int(slot) == block: // peel this lane off
		res.Next = k.width
	default:
		res.Next = block + 1
	}
}

// runStackBounded runs s to completion one cycle at a time, failing if
// any warp's stack ever exceeds the 2*warpSize-1 bound push proves, and
// returns the final stats and the deepest stack seen.
func runStackBounded(t *testing.T, s *SMX) (Stats, int) {
	t.Helper()
	bound, deepest := 2*s.cfg.WarpSize-1, 0
	for s.LiveWarps() > 0 {
		if err := s.RunFor(1); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < s.NumWarps(); w++ {
			d := s.Warp(w).StackDepth()
			if d > bound {
				t.Fatalf("cycle %d: warp %d stack depth %d exceeds 2*warpSize-1 = %d", s.Cycle(), w, d, bound)
			}
			deepest = max(deepest, d)
		}
	}
	return s.Stats(), deepest
}

// TestStackBoundIsTight drives the peel kernel, which reaches the
// stack bound exactly: 63 entries at warp width 32, 15 at width 8.
func TestStackBoundIsTight(t *testing.T) {
	for _, width := range []int{32, 8} {
		cfg := smallConfig(1)
		cfg.WarpSize = width
		s := newTestSMX(t, cfg, peelKernel{width}, Hooks{})
		s.LaunchAll(0)
		st, deepest := runStackBounded(t, s)
		if want := 2*width - 1; deepest != want {
			t.Errorf("width %d: deepest stack %d, want %d", width, deepest, want)
		}
		if st.Retired != int64(width) || st.ActiveHist[width] != 2 {
			t.Errorf("width %d: %d lanes retired and %d full-width blocks, want %d and 2 (the first chain block and the join)",
				width, st.Retired, st.ActiveHist[width], width)
		}
	}
}

// TestStackWindowOverflowFaults pushes one entry past warp 0's window
// in a two-warp store: the push must fault on the index and leave warp
// 1's window untouched.
func TestStackWindowOverflowFaults(t *testing.T) {
	const wsz = 32
	st := newWarpState(2, wsz, 0)
	full := make([]int32, wsz)
	for l := range full {
		full[l] = int32(l)
	}
	st.launch(1, 7, full)
	st.push(1, stackEntry{reconv: 9, pc: 8, mask: 1})
	want := append([]stackEntry(nil), st.stack[st.stackCap:]...)

	st.launch(0, 0, full)
	for int(st.stackLen[0]) < st.stackCap {
		st.push(0, stackEntry{reconv: 1, pc: st.stackLen[0], mask: 1})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a push past warp 0's window did not fault")
			}
		}()
		st.push(0, stackEntry{reconv: 1, pc: 2, mask: 1})
	}()
	if st.stackLen[0] != int32(st.stackCap) {
		t.Errorf("warp 0 stack depth %d after the faulting push, want %d", st.stackLen[0], st.stackCap)
	}
	for i, e := range st.stack[st.stackCap:] {
		if e != want[i] {
			t.Fatalf("warp 1 window entry %d is %+v, want %+v", i, e, want[i])
		}
	}
}
