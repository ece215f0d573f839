package kernels

import (
	"repro/internal/geom"
	"repro/internal/simt"
)

// Block ids of the Aila while-while kernel. The graph mirrors the
// structured while-while source: a persistent outer loop whose body is
// an inner-node while loop, a leaf while loop, and a commit/fetch tail.
const (
	ailaFetch    = 0 // fetch a new ray from the pool and initialize
	ailaInner    = 1 // one inner-node traversal step (while node is inner)
	ailaLeafChk  = 2 // leaf-while condition: pick the next leaf to test
	ailaLeaf     = 3 // one ray-triangle intersection test
	ailaOuterChk = 4 // outer condition: continue traversal or finish ray
	ailaCommit   = 5 // store the hit, then replace the terminated ray
)

// AilaConfig controls the baseline kernel's optimizations.
type AilaConfig struct {
	// Speculative enables postponed-leaf speculative traversal with the
	// warp-wide break vote (on in Aila's kernel; Kernel 1 removes it).
	Speculative bool
	// AnyHit makes the kernel an occlusion (shadow-ray) kernel: a ray
	// terminates at its first hit instead of searching for the closest.
	AnyHit bool
}

// Aila is the software baseline ray traversal kernel ("while-while"
// with persistent threads, speculative traversal and terminated-ray
// replacement). One instance runs per SMX.
type Aila struct {
	cfg  AilaConfig
	data *SceneData
	pool *Pool

	slots slotTable
	// Hits receives the committed hit for every pool ray index.
	Hits []geom.Hit

	blocks []simt.BlockInfo
}

// NewAila creates the baseline kernel for one SMX with the given
// number of thread slots (warps * warpSize).
func NewAila(data *SceneData, pool *Pool, slots int, cfg AilaConfig) *Aila {
	k := &Aila{
		cfg:   cfg,
		data:  data,
		pool:  pool,
		slots: newSlotTable(slots, len(pool.Rays), data.BVH.MaxDepth),
		Hits:  make([]geom.Hit, len(pool.Rays)),
	}
	for i := range k.Hits {
		k.Hits[i] = geom.NoHit
	}
	k.blocks = []simt.BlockInfo{
		ailaFetch:    {Name: "fetch", Insts: 18, MemInsts: 1, SrcOps: 2},
		ailaInner:    {Name: "inner", Insts: 25, MemInsts: 1, SrcOps: 3, Reconv: ailaLeafChk},
		ailaLeafChk:  {Name: "leafchk", Insts: 5, SrcOps: 2, Reconv: ailaOuterChk},
		ailaLeaf:     {Name: "leaf", Insts: 17, MemInsts: 1, SrcOps: 3, Reconv: ailaLeafChk},
		ailaOuterChk: {Name: "outerchk", Insts: 6, SrcOps: 2, Reconv: ailaInner},
		ailaCommit:   {Name: "commit", Insts: 7, MemInsts: 1, SrcOps: 2},
	}
	return k
}

// ailaSuccs is the static CFG: every target Step (and Vote, which can
// only pick from the per-lane candidates) may produce per block.
// outerchk's back-edge to inner is the paper's persistent-threads trick:
// warps with a terminated ray jump back through the traversal loop to
// pick up replacement work, so reconvergence is declared at the loop
// header rather than the textbook post-dominator (commit).
var ailaSuccs = [][]int{
	ailaFetch:    {ailaInner, simt.BlockExit},
	ailaInner:    {ailaInner, ailaLeafChk},
	ailaLeafChk:  {ailaLeaf, ailaLeafChk, ailaOuterChk},
	ailaLeaf:     {ailaLeaf, ailaLeafChk},
	ailaOuterChk: {ailaCommit, ailaInner},
	ailaCommit:   {ailaFetch},
}

// Successors implements simt.StaticCFG.
func (k *Aila) Successors(block int) []int { return ailaSuccs[block] }

// Blocks implements simt.Kernel.
func (k *Aila) Blocks() []simt.BlockInfo { return k.blocks }

// Entry implements simt.Kernel: threads start by fetching a ray.
func (k *Aila) Entry() int { return ailaFetch }

// Ctx returns the context of a slot (for tests and the SER wrapper). A
// slot that has not fetched a ray reads a shared blank context, which
// callers must not write.
func (k *Aila) Ctx(slot int32) *Ctx { return k.slots.ctx(slot) }

// NumSlots returns the number of thread slots.
func (k *Aila) NumSlots() int { return len(k.slots.state) }

// Step implements simt.Kernel.
func (k *Aila) Step(slot int32, block int, res *simt.StepResult) {
	c := k.slots.ctx(slot)
	res.NMem = 0
	switch block {
	case ailaFetch:
		if !k.slots.fetch(slot, k.pool, k.data, res) {
			k.slots.state[slot] = StateEmpty
			res.Next = simt.BlockExit
			return
		}
		k.slots.state[slot] = StateInner
		res.Next = ailaInner

	case ailaInner:
		res.Next = k.innerStep(c, res)

	case ailaLeafChk:
		// Pick the next leaf to test: a postponed leaf first, then a
		// leaf in Cur.
		switch {
		case c.Pending != RefNone:
			ref := c.Pending
			c.Pending = RefNone
			if c.beginLeaf(ref) {
				res.Next = ailaLeaf
			} else {
				res.Next = ailaLeafChk // skip empty leaf, recheck
			}
		case isLeaf(c.Cur):
			ref := c.Cur
			c.Cur = c.pop()
			if c.beginLeaf(ref) {
				res.Next = ailaLeaf
			} else {
				res.Next = ailaLeafChk
			}
		default:
			res.Next = ailaOuterChk
		}

	case ailaLeaf:
		addr, more := c.triStep(k.data)
		res.Mem[0] = texAccess(addr, 48)
		res.NMem = 1
		if k.cfg.AnyHit && c.Hit.TriIndex >= 0 {
			// Occlusion query: the first hit settles the ray.
			c.abortTraversal()
			res.Next = ailaLeafChk
			return
		}
		if more {
			res.Next = ailaLeaf
		} else {
			c.CurLeaf = RefNone
			res.Next = ailaLeafChk
		}

	case ailaOuterChk:
		if c.Cur == RefNone && c.SP == 0 && c.Pending == RefNone {
			res.Next = ailaCommit
		} else {
			res.Next = ailaInner
		}

	case ailaCommit:
		k.Hits[c.RayIndex] = c.finalHit()
		res.Mem[0] = dataAccess(k.data.HitAddr(c.RayIndex), 16)
		res.NMem = 1
		k.slots.state[slot] = StateFetch
		res.Next = ailaFetch

	default:
		panic("kernels: aila: bad block")
	}
}

// innerStep handles one iteration of the inner-node while loop for one
// thread, including the speculative postponed-leaf policy.
func (k *Aila) innerStep(c *Ctx, res *simt.StepResult) int {
	// A leaf (or exhausted traversal) in Cur ends the inner loop unless
	// speculation can postpone it.
	if c.Cur == RefNone {
		return ailaLeafChk
	}
	if isLeaf(c.Cur) {
		if k.cfg.Speculative && c.Pending == RefNone {
			c.Pending = c.Cur
			c.Cur = c.pop()
			if c.Cur == RefNone || isLeaf(c.Cur) {
				return ailaLeafChk
			}
			// Fall through to visit the popped inner node this step.
		} else {
			return ailaLeafChk
		}
	}
	addr := c.nodeStep(k.data)
	res.Mem[0] = texAccess(addr, 64)
	res.NMem = 1
	// Speculative postpone: a freshly found leaf is parked so the
	// thread keeps doing useful inner-node work with the rest of the
	// warp instead of idling until the leaf phase.
	if k.cfg.Speculative && isLeaf(c.Cur) && c.Pending == RefNone {
		c.Pending = c.Cur
		c.Cur = c.pop()
	}
	if c.Cur != RefNone && !isLeaf(c.Cur) {
		return ailaInner
	}
	return ailaLeafChk
}

// Vote implements simt.WarpVoter: Aila's speculative break — once every
// active lane of the inner loop either holds a postponed leaf or has
// finished traversal, the whole warp breaks to leaf processing
// together instead of speculating further.
func (k *Aila) Vote(warp, block int, slots []int32, res []*simt.StepResult) {
	if !k.cfg.Speculative || block != ailaInner {
		return
	}
	for i, r := range res {
		if r.Next != ailaInner {
			continue
		}
		if k.slots.ctx(slots[i]).Pending == RefNone {
			// Someone still traverses without a postponed leaf: keep
			// speculating, no break.
			return
		}
	}
	// Everyone has leaf work (or is done): break the loop warp-wide.
	for _, r := range res {
		if r.Next == ailaInner {
			r.Next = ailaLeafChk
		}
	}
}

// rayLoad builds the data-cache access that fetching ray idx performs.
func rayLoad(d *SceneData, idx int32) simt.MemAccess {
	return dataAccess(d.RayAddr(idx), 32)
}
