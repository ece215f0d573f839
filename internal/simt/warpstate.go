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

// stackSlack bounds the per-warp reconvergence stack window: the engine
// panics when a stack exceeds 4*warpSize entries, and one resolve can
// push at most warpSize-1 entries before that check runs, so 5*warpSize
// covers the deepest transient state.
const stackSlack = 5

// warpState is the struct-of-arrays store for one SMX's resident
// warps. Per-warp fields are dense arrays indexed by warp id; lane
// state (slot map, step results) is flat [n*wsz] indexed w*wsz+l; the
// reconvergence stacks live in fixed per-warp windows of a single
// backing array. The live counter is maintained incrementally by
// setPhase — no code path needs an O(warps) recount.
type warpState struct {
	n    int // resident warps
	wsz  int // lanes per warp
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
	// without the call (SMX.try).
	gateWait []bool

	// slots maps lane -> kernel context slot (-1 = empty lane);
	// res holds the per-lane results for the current block.
	slots []int32
	res   []StepResult

	// stack[w*stackCap : w*stackCap+stackLen[w]] is warp w's IPDOM
	// reconvergence stack (fixed window, no per-warp allocation).
	stack    []stackEntry
	stackLen []int32
	stackCap int

	// pending holds each warp's L2-bound accesses of the current epoch
	// (epoch-barrier engine only); ResolveEpoch applies and clears them.
	// The slices are reused across epochs and stop growing once warm.
	pending [][]memPending

	// wakeGen counts launches/resumes — the only events that can make a
	// warp issuable *earlier* than its recorded readyCycle (launch
	// resets it to 0; stalls and parks only push wake-ups later). The
	// scheduler's idle cache keys on it: a scan that found nothing
	// issuable stays valid until the recorded wake cycle unless this
	// generation moves.
	wakeGen uint64
}

func newWarpState(n, wsz int) *warpState {
	st := &warpState{
		n:          n,
		wsz:        wsz,
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
		res:        make([]StepResult, n*wsz),
		stack:      make([]stackEntry, n*stackSlack*wsz),
		stackLen:   make([]int32, n),
		stackCap:   stackSlack * wsz,
		pending:    make([][]memPending, n),
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
	st.pending[w] = st.pending[w][:0]
}

// push appends one entry to warp w's reconvergence stack window. The
// window is sized for the deepest transient stack the engine's runaway
// check admits, so no bounds growth can occur.
func (st *warpState) push(w int, e stackEntry) {
	st.stack[w*st.stackCap+int(st.stackLen[w])] = e
	st.stackLen[w]++
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
