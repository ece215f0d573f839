//drslint:hotpath
// warpstate.go holds the struct-of-arrays warp store: every per-warp
// and per-lane field of the engine lives in one flat array owned by the
// SMX, indexed by warp id (per-warp fields) or w*warpSize+l (per-lane
// fields). The issue loop, the divergence resolver and the scheduler
// scan these arrays linearly instead of chasing per-warp heap objects;
// vote/ballot/divergence-split and lane retirement are uint32 bitmask
// operations over the packed masks. The public *Warp type (warp.go) is
// a thin view over this store, which keeps the architecture hooks
// (core/dmk/tbc/ser/gshuffle) source-compatible.

package simt

import (
	"math/bits"

	"repro/internal/memsys"
)

// memPending is one warp memory access awaiting the epoch drain's L2
// hit/miss outcome: requests [first, first+count) on the SMX's L2
// port, and the ready cycle to impose if any of them missed. Pending
// records live at most one epoch — the barrier that follows their issue
// resolves and clears them.
type memPending struct {
	first     memsys.ReqID
	count     int
	missReady int64
}

// warpPhase tracks where a warp is in its block execution cycle.
type warpPhase uint8

const (
	phaseEnter   warpPhase = iota // needs gate check + Step for its block
	phaseExec                     // issuing the block's instructions
	phaseResolve                  // block finished, divergence pending
	phaseParked                   // suspended by an architecture hook (TBC barrier)
	phaseDone                     // all lanes retired
)

// stackEntry is one level of the IPDOM reconvergence stack. Fields are
// int32 so a warp's whole stack window stays within a few cache lines
// (block ids are small; noReconv fits).
type stackEntry struct {
	reconv int32  // block where this entry's threads reconverge
	pc     int32  // next block for this entry's threads
	mask   uint32 // active lanes
}

// noReconv marks the bottom stack entry, which never pops.
const noReconv = -2

// memSlot is one memory instruction slot of a warp's current block,
// packed at block entry: the lanes that emitted an access for the slot
// (their addresses sit in lane order in the store's addr window), the
// widest access among them, and the space of the last such lane — what
// issueMem hands the memory model.
type memSlot struct {
	n     int32
	bytes uint32
	space memsys.Space
}

// warpState is the struct-of-arrays store for one SMX's resident
// warps. Per-warp fields are dense arrays indexed by warp id; lane
// state (slot map, successors) is flat [n*wsz] indexed w*wsz+l; the
// packed memory slots and the reconvergence stacks live in fixed
// per-warp windows of single backing arrays. The live counter is
// maintained incrementally by setPhase — no code path needs an
// O(warps) recount.
type warpState struct {
	n    int // resident warps
	wsz  int // lanes per warp
	k    int // memory slots per warp: the kernel's largest MemInsts
	live int // warps not phaseDone (parked warps count as live)

	phase      []warpPhase
	block      []int32
	activeMask []uint32 // mask captured at block entry
	insRem     []int32
	memRem     []int32
	memIdx     []int32
	readyCycle []int64
	// memReady is when the current block's outstanding memory data
	// arrives; loads issue early and overlap with the block's ALU
	// instructions, so the warp only stalls on it at block completion.
	memReady   []int64
	lastIssued []int64
	// gateWait marks a warp whose last gate call stalled. Only launch
	// and the warp's next gate call clear it; while Hooks.GateHolds
	// reports true, a retry of a marked warp is charged its stall
	// without the call (SMX.turn).
	gateWait []bool

	// slots maps lane -> kernel context slot (-1 = empty lane); next
	// holds each lane's successor for the current block.
	slots []int32
	next  []int32

	// mem[w*k+j] is memory slot j of warp w's current block, and
	// addr[(w*k+j)*wsz:][:mem[w*k+j].n] its lanes' addresses (pack).
	mem  []memSlot
	addr []uint64

	// stack[w*stackCap : w*stackCap+stackLen[w]] is warp w's IPDOM
	// reconvergence stack, in a window of 2*wsz-1 entries: the proven
	// bound (push).
	stack    []stackEntry
	stackLen []int32
	stackCap int

	// pending[w*k : w*k+pendingLen[w]] holds warp w's L2-bound accesses
	// of the current epoch, in a window of k entries: the proven bound
	// (addPending). ResolveEpoch applies and clears them.
	pending    []memPending
	pendingLen []int32

	// wakeGen counts launches/resumes — the only events that can make a
	// warp issuable *earlier* than its recorded readyCycle (launch
	// resets it to 0; stalls and parks only push wake-ups later). The
	// schedulers' turn caches key on it: a walk that found nothing
	// issuable stays valid until the recorded wake cycle unless this
	// generation moves.
	wakeGen uint64
	// holdGen counts the events that can take a marked warp out of a
	// turn cache's waiting count without a launch: a raise of its ready
	// cycle (raise) and a park (Warp.Park). A cache that counts waiting
	// warps keys on it too.
	holdGen uint64
}

// newWarpState builds the store for n warps of wsz lanes running a
// kernel whose blocks declare at most k memory instructions.
func newWarpState(n, wsz, k int) *warpState {
	stackCap := 2*wsz - 1
	st := &warpState{
		n:          n,
		wsz:        wsz,
		k:          k,
		phase:      make([]warpPhase, n),
		block:      make([]int32, n),
		activeMask: make([]uint32, n),
		insRem:     make([]int32, n),
		memRem:     make([]int32, n),
		memIdx:     make([]int32, n),
		readyCycle: make([]int64, n),
		memReady:   make([]int64, n),
		lastIssued: make([]int64, n),
		gateWait:   make([]bool, n),
		slots:      make([]int32, n*wsz),
		next:       make([]int32, n*wsz),
		mem:        make([]memSlot, n*k),
		addr:       make([]uint64, n*k*wsz),
		stack:      make([]stackEntry, n*stackCap),
		stackLen:   make([]int32, n),
		stackCap:   stackCap,
		pending:    make([]memPending, n*k),
		pendingLen: make([]int32, n),
	}
	for i := range st.phase {
		st.phase[i] = phaseDone
	}
	return st
}

// setPhase transitions warp w's phase, maintaining the live counter
// (live = not done; parked warps count). Every phase write in the
// engine and in the *Warp view goes through here, so the counter is
// exact without any recount scan.
func (st *warpState) setPhase(w int, p warpPhase) {
	old := st.phase[w]
	if old == p {
		return
	}
	st.phase[w] = p
	if old == phaseDone {
		st.live++
	} else if p == phaseDone {
		st.live--
	}
}

// raise lifts warp w's ready cycle to at least t. Raising a marked
// warp's drops the turn caches (holdGen): a cache may count it as ready
// next cycle.
func (st *warpState) raise(w int, t int64) {
	if t > st.readyCycle[w] {
		st.readyCycle[w] = t
		if st.gateWait[w] {
			st.holdGen++
		}
	}
}

// laneBase returns the first flat lane index of warp w.
func (st *warpState) laneBase(w int) int { return w * st.wsz }

// laneSlots returns warp w's lane -> slot window (capacity-clipped so
// appends cannot cross into the next warp).
func (st *warpState) laneSlots(w int) []int32 {
	b := st.laneBase(w)
	return st.slots[b : b+st.wsz : b+st.wsz]
}

// launch (re)starts warp w at block entry with the given lane -> slot
// mapping. A mapping shorter than the warp keeps the previous values of
// the uncovered lanes, exactly like the pre-SoA copy-then-scan did;
// lanes with slot -1 are masked off.
func (st *warpState) launch(w, entry int, slots []int32) {
	st.wakeGen++
	window := st.laneSlots(w)
	copy(window, slots)
	var mask uint32
	for l, s := range window {
		if s >= 0 {
			mask |= 1 << uint(l)
		}
	}
	st.stackLen[w] = 0
	if mask != 0 {
		st.push(w, stackEntry{reconv: noReconv, pc: int32(entry), mask: mask})
		st.setPhase(w, phaseEnter)
	} else {
		st.setPhase(w, phaseDone)
	}
	st.block[w] = int32(entry)
	st.readyCycle[w] = 0
	st.gateWait[w] = false
	// Remaps only happen to warps with no in-flight memory (a warp with
	// unresolved L2 requests cannot reach a gate or divergence point
	// before the barrier that resolves them), so this is hygiene.
	st.pendingLen[w] = 0
}

// push appends one entry to warp w's reconvergence stack window, whose
// 2*wsz-1 entries hold the deepest stack a warp can reach. Read the
// stack as a tree: an entry's parent is the entry on top when it was
// pushed.
//
//   - An entry's children on the stack all come from its latest
//     divergence (it diverges only as the top, when none are left): they
//     are non-empty, pairwise disjoint, and each a strict subset of its
//     mask.
//   - Only lanes of the top entry retire, and retiring removes them from
//     every entry, dropping the emptied ones: the top and a run of its
//     ancestors.
//   - Call an entry's lanes that are in none of its children its own.
//     Own-lane sets are disjoint, and every leaf has own lanes, so
//     leaves plus entries with own lanes number at most s, the live
//     lanes.
//   - Entries with two or more children number at most leaves-1.
//   - An entry with one child and no own lanes is never pushed that way
//     (a divergence that pushes one child leaves the other target's
//     lanes with the parent); it arises only when a retirement drops its
//     other child, at most once per retirement, so at most r times for
//     r retired lanes.
//
// So depth <= 2s-1+r <= 2*wsz-1, since s+r <= wsz. The bound is tight:
// a chain that peels one lane per block off to a sink reaches it. The
// capacity-clipped window makes a broken bound fault on the index
// rather than overwrite warp w+1's stack.
func (st *warpState) push(w int, e stackEntry) {
	b := w * st.stackCap
	window := st.stack[b : b+st.stackCap : b+st.stackCap]
	window[st.stackLen[w]] = e
	st.stackLen[w]++
}

// addPending records one L2-bound access of warp w for ResolveEpoch,
// in the warp's window of k entries. A warp makes at most k of them per
// epoch:
//
//   - an L2-bound access's provisional latency is at least
//     L1HitLat+L2HitLat, which Config.Validate requires to be positive
//     and EpochLen is clamped to, and the epoch started no later than
//     the access, so the warp's memReady reaches past the barrier;
//   - block completion moves memReady into readyCycle, so after the
//     access the warp issues nothing outside its current block until the
//     barrier has cleared the window;
//   - that block has at most k memory instructions, one record each;
//   - launch, the only write that lowers readyCycle, remaps only warps
//     with no in-flight memory, and clears the window.
//
// The capacity-clipped window makes a broken bound fault on the index
// rather than overwrite warp w+1's records.
func (st *warpState) addPending(w int, p memPending) {
	b := w * st.k
	window := st.pending[b : b+st.k : b+st.k]
	window[st.pendingLen[w]] = p
	st.pendingLen[w]++
}

// memAddrs returns the address window of warp w's memory slot j
// (capacity-clipped to the warp's lanes).
func (st *warpState) memAddrs(w, j int) []uint64 {
	b := (w*st.k + j) * st.wsz
	return st.addr[b : b+st.wsz : b+st.wsz]
}

// pack stores the step results of the warp entering a block: res[i] is
// the result of the i-th lane of mask, in lane order. Each lane keeps
// its successor; memory slot j < memInsts keeps the addresses of the
// lanes that emitted a j-th access, the widest access and the last such
// lane's space. issueMem reads no slot at or above the block's
// MemInsts, so those are left as they are.
func (st *warpState) pack(w int, mask uint32, res []StepResult, memInsts int) {
	base := st.laneBase(w)
	i := 0
	for m := mask; m != 0; m &= m - 1 {
		st.next[base+bits.TrailingZeros32(m)] = int32(res[i].Next)
		i++
	}
	for j := 0; j < memInsts; j++ {
		addr := st.memAddrs(w, j)
		ms := memSlot{}
		for i := range res {
			r := &res[i]
			if j >= r.NMem {
				continue
			}
			a := r.Mem[j]
			addr[ms.n] = a.Addr
			ms.n++
			ms.space = a.Space
			if a.Bytes > ms.bytes {
				ms.bytes = a.Bytes
			}
		}
		st.mem[w*st.k+j] = ms
	}
}

// top returns a pointer to the top stack entry of warp w (stack must be
// non-empty).
func (st *warpState) top(w int) *stackEntry {
	return &st.stack[w*st.stackCap+int(st.stackLen[w])-1]
}

// topMask returns the active mask of warp w's top stack entry, or 0 if
// the stack is empty.
func (st *warpState) topMask(w int) uint32 {
	if st.stackLen[w] == 0 {
		return 0
	}
	return st.stack[w*st.stackCap+int(st.stackLen[w])-1].mask
}

// retireLanes removes the given lanes from every stack entry of warp w,
// dropping entries that become empty, and clears the lanes' slots.
// Returns the number of lanes retired. This is the bitmask form of lane
// retirement: one AND-NOT per stack entry plus one trailing-zeros scan
// over the retired mask.
func (st *warpState) retireLanes(w int, mask uint32) int {
	if mask == 0 {
		return 0
	}
	n := bits.OnesCount32(mask)
	base := w * st.stackCap
	out := base
	for i := base; i < base+int(st.stackLen[w]); i++ {
		e := st.stack[i]
		e.mask &^= mask
		if e.mask != 0 {
			st.stack[out] = e
			out++
		}
	}
	st.stackLen[w] = int32(out - base)
	lb := st.laneBase(w)
	for m := mask; m != 0; m &= m - 1 {
		st.slots[lb+bits.TrailingZeros32(m)] = -1
	}
	return n
}

// popReconverged pops warp w's stack entries whose pc reached their
// reconvergence block.
func (st *warpState) popReconverged(w int) {
	base := w * st.stackCap
	for st.stackLen[w] > 0 {
		top := st.stack[base+int(st.stackLen[w])-1]
		if top.reconv == noReconv || top.pc != top.reconv {
			return
		}
		st.stackLen[w]--
	}
}
