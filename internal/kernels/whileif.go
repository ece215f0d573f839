package kernels

import (
	"repro/internal/geom"
	"repro/internal/simt"
)

// Block ids of the while-if kernel (Kernel 1 of the paper). The main
// loop reads a control value via the gated rdctrl block, then executes
// exactly one of the three if-bodies, stores the next ray state, and
// returns to rdctrl.
const (
	// WiRdctrl is the gated control block; the DRS hardware may remap
	// the warp to a different row of rays here, or stall its issue.
	WiRdctrl = 0
	// WiFetch is the first if-body: fetch a new ray and initialize.
	WiFetch = 1
	// WiInner is the second if-body: traverse one inner node.
	WiInner = 2
	// WiLeaf is the third if-body: ray-triangle intersection tests.
	WiLeaf = 3
)

// Burst bounds: each if-body invocation processes up to this many
// traversal steps before storing reg_ray_state and returning to
// rdctrl. The paper's compiled main loop is "over 300 lines of
// instructions" with a single rdctrl; bounded bursts reproduce that
// ratio while leaving the minor intra-body divergence the paper says
// keeps the DRS below 100% SIMD efficiency.
const (
	InnerBurst = 4
	LeafBurst  = 4
)

// WhileIfConfig tunes Kernel 1's if-body burst bounds (the DESIGN.md
// leaf-unroll ablation). Zero fields use the defaults above.
type WhileIfConfig struct {
	InnerBurst int
	LeafBurst  int
	// AnyHit makes Kernel 1 an occlusion (shadow-ray) kernel.
	AnyHit bool
}

func (c WhileIfConfig) withDefaults() WhileIfConfig {
	if c.InnerBurst <= 0 {
		c.InnerBurst = InnerBurst
	}
	if c.LeafBurst <= 0 {
		c.LeafBurst = LeafBurst
	}
	return c
}

// WhileIf is Kernel 1: Aila's kernel restructured into the layered
// while-if form, with speculative traversal removed (§4.1). One
// instance runs per SMX; the DRS control (internal/core) owns the
// warp-to-row mapping and consults the per-slot States.
type WhileIf struct {
	data *SceneData
	pool *Pool
	cfg  WhileIfConfig

	slots slotTable
	// Hits receives the committed hit for every pool ray index.
	Hits []geom.Hit

	// Listener, if set, is notified of every ray state transition (the
	// DRS control mirrors these into its ray state table counters).
	Listener func(slot int32, old, new State)

	blocks []simt.BlockInfo
}

// setState transitions a slot's ray state, notifying the listener.
func (k *WhileIf) setState(slot int32, s State) {
	old := k.slots.state[slot]
	if old == s {
		return
	}
	k.slots.state[slot] = s
	if k.Listener != nil {
		k.Listener(slot, old, s)
	}
}

// NewWhileIf creates the while-if kernel with the given number of ray
// slots (rows * warpSize; the DRS organizes slots into rows) and burst
// bounds.
func NewWhileIf(data *SceneData, pool *Pool, slots int, cfg WhileIfConfig) *WhileIf {
	k := &WhileIf{
		data:  data,
		pool:  pool,
		cfg:   cfg.withDefaults(),
		slots: newSlotTable(slots, len(pool.Rays), data.BVH.MaxDepth),
		Hits:  make([]geom.Hit, len(pool.Rays)),
	}
	for i := range k.Hits {
		k.Hits[i] = geom.NoHit
	}
	k.blocks = []simt.BlockInfo{
		WiRdctrl: {Name: "rdctrl", Insts: 3, SrcOps: 1, Gated: true, Tag: simt.TagCtrl, Reconv: WiRdctrl},
		WiFetch:  {Name: "fetch", Insts: 18, MemInsts: 1, SrcOps: 2},
		WiInner:  {Name: "inner", Insts: 26, MemInsts: 2, SrcOps: 3, Reconv: WiRdctrl},
		WiLeaf:   {Name: "leaf", Insts: 18, MemInsts: 2, SrcOps: 3, Reconv: WiRdctrl},
	}
	return k
}

// whileIfSuccs is the static CFG. Every body block returns to rdctrl —
// the dispatch loop reconverges on itself (Reconv: WiRdctrl), which the
// verifier accepts under the loop-header rule since the textbook
// post-dominator of a persistent dispatch loop is the kernel exit.
var whileIfSuccs = [][]int{
	WiRdctrl: {WiFetch, WiInner, WiLeaf, simt.BlockExit},
	WiFetch:  {WiRdctrl},
	WiInner:  {WiInner, WiRdctrl},
	WiLeaf:   {WiLeaf, WiRdctrl},
}

// Successors implements simt.StaticCFG.
func (k *WhileIf) Successors(block int) []int { return whileIfSuccs[block] }

// Blocks implements simt.Kernel.
func (k *WhileIf) Blocks() []simt.BlockInfo { return k.blocks }

// Entry implements simt.Kernel: every warp starts at rdctrl.
func (k *WhileIf) Entry() int { return WiRdctrl }

// NumSlots returns the number of ray slots.
func (k *WhileIf) NumSlots() int { return len(k.slots.state) }

// StateOf returns the ray traversal state of a slot — the DRS ray
// state table reads this (it is the reg_ray_state value).
func (k *WhileIf) StateOf(slot int32) State {
	if slot < 0 {
		return StateEmpty
	}
	return k.slots.state[slot]
}

// Pool returns the SMX's ray pool.
func (k *WhileIf) Pool() *Pool { return k.pool }

// Step implements simt.Kernel.
func (k *WhileIf) Step(slot int32, block int, res *simt.StepResult) {
	c := k.slots.ctx(slot)
	res.NMem = 0
	switch block {
	case WiRdctrl:
		// The DRS gate has already ensured the row's states are
		// uniform; each lane branches by its own state (identical
		// across the warp). A traversal body starts a fresh burst; only
		// a slot in a traversal state holds a ray, so a slot that has
		// not fetched never writes its blank context.
		switch k.slots.state[slot] {
		case StateFetch:
			res.Next = WiFetch
		case StateInner:
			c.Burst = 0
			res.Next = WiInner
		case StateLeaf:
			c.Burst = 0
			res.Next = WiLeaf
		default:
			// Empty slots are masked off by the gate; if one slips
			// through, retire it.
			res.Next = simt.BlockExit
		}

	case WiFetch:
		res.Next = WiRdctrl
		if !k.slots.fetch(slot, k.pool, k.data, res) {
			k.setState(slot, StateEmpty)
			return
		}
		k.setState(slot, StateInner)

	case WiInner:
		addr := c.nodeStep(k.data)
		res.Mem[0] = texAccess(addr, 64)
		res.NMem = 1
		k.settleAfterTraversal(slot, c, res)
		c.Burst++
		// Keep traversing within this if-body while the ray stays in
		// the inner state and the burst bound allows; lanes that leave
		// early wait at the rdctrl reconvergence point (the minor
		// intra-body divergence of §4.4).
		if k.slots.state[slot] == StateInner && c.Burst < int32(k.cfg.InnerBurst) {
			res.Next = WiInner
		} else {
			res.Next = WiRdctrl
		}

	case WiLeaf:
		res.Next = WiRdctrl
		if c.CurLeaf == RefNone {
			// First visit to this leaf: latch it from Cur.
			ref := c.Cur
			c.Cur = c.pop()
			if !c.beginLeaf(ref) {
				// Empty leaf: settle the state and go back to control.
				k.settleAfterTraversal(slot, c, res)
				return
			}
		}
		addr, more := c.triStep(k.data)
		res.Mem[0] = texAccess(addr, 48)
		res.NMem = 1
		c.Burst++
		if k.cfg.AnyHit && c.Hit.TriIndex >= 0 {
			// Occlusion query: the first hit settles the ray.
			c.abortTraversal()
			k.settleAfterTraversal(slot, c, res)
			return
		}
		if more {
			// State stays leaf; continue within the body while the
			// burst bound allows.
			if c.Burst < int32(k.cfg.LeafBurst) {
				res.Next = WiLeaf
			}
			return
		}
		c.CurLeaf = RefNone
		k.settleAfterTraversal(slot, c, res)
		if k.slots.state[slot] == StateLeaf && c.Burst < int32(k.cfg.LeafBurst) {
			res.Next = WiLeaf // next leaf, same if-body invocation
		}

	default:
		panic("kernels: whileif: bad block")
	}
}

// settleAfterTraversal inspects Cur after a traversal step and stores
// the next ray state (the reg_ray_state write at the end of each
// if-body). A completed ray commits its hit here and enters the fetch
// state.
func (k *WhileIf) settleAfterTraversal(slot int32, c *Ctx, res *simt.StepResult) {
	switch {
	case c.Cur == RefNone:
		// Ray finished: store the hit.
		k.Hits[c.RayIndex] = c.finalHit()
		if res.NMem < 2 {
			res.Mem[res.NMem] = dataAccess(k.data.HitAddr(c.RayIndex), 16)
			res.NMem++
		}
		k.setState(slot, StateFetch)
	case isLeaf(c.Cur):
		k.setState(slot, StateLeaf)
	default:
		k.setState(slot, StateInner)
	}
}
