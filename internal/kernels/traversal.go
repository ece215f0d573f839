// Package kernels implements the ray traversal kernels the paper
// evaluates as basic-block programs for the simt engine:
//
//   - Aila: the software baseline — the "while-while" kernel with
//     persistent threads, speculative traversal (postponed leaves with a
//     warp-wide break vote) and terminated-ray replacement, per Aila et
//     al.'s Kepler kernel that the paper uses as its comparison point.
//   - WhileIf: Kernel 1 of the paper — the layered "while-if" kernel
//     driven by the rdctrl instruction, built on Aila's kernel by
//     removing speculative traversal; it is the kernel the DRS hardware
//     (internal/core) schedules.
//
// Both kernels share the per-thread traversal semantics and the slot
// table in this file, operating on the flattened BVH from internal/bvh
// and on traversal contexts that stand in for the 17 live ray
// registers of the paper, one per ray in flight.
package kernels

import (
	"fmt"
	"math"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/memsys"
	"repro/internal/simt"
	"repro/internal/vec"
)

// RayRegisters is the number of live per-ray register variables the
// paper reports for Kernel 1 ("the variables of a ray are composed of
// 17 integers and floats"); the DRS swap engine moves this many values
// per shuffled ray.
const RayRegisters = 17

// RefNone is the absent child reference.
const RefNone = int64(math.MinInt64)

// Child references pack either an inner node index (>= 0) or a leaf
// (first triangle, count) pair into an int64.
func innerChild(idx int32) int64 { return int64(idx) }

func leafChild(first, count int32) int64 {
	return -((int64(first) << 16) | int64(count)) - 1
}

func isLeaf(ref int64) bool { return ref < 0 && ref != RefNone }

func leafBounds(ref int64) (first, count int32) {
	v := -(ref + 1)
	return int32(v >> 16), int32(v & 0xffff)
}

// childOf converts a bvh.Node child encoding to a child reference.
func childOf(idx, count int32) int64 {
	if idx >= 0 {
		return innerChild(idx)
	}
	return leafChild(^idx, count)
}

// Ctx is the traversal context of one ray in flight: the live state of
// the ray, corresponding to the ray registers the DRS shuffles. A kernel
// keeps its contexts in a slotTable's arena, not one per slot.
type Ctx struct {
	Ray    geom.Ray
	InvDir vec.V3
	Hit    geom.Hit

	// Stack holds the far children still to visit; it has the BVH's
	// MaxDepth+1 entries, which push shows is enough.
	Stack []int64
	SP    int

	// Cur is the next child reference to visit (inner or leaf).
	Cur int64
	// Pending is a postponed leaf (speculative traversal, Aila only).
	Pending int64
	// CurLeaf and LeafIdx track the leaf currently being tested.
	CurLeaf int64
	LeafIdx int32

	// RayIndex is the ray's index in the pool, for result storage.
	RayIndex int32

	// Burst counts the traversal steps taken in the current if-body
	// invocation of the while-if kernel; bodies process up to a bounded
	// burst of nodes/triangles per rdctrl round.
	Burst int32
}

// State is the ray traversal state (§3.2.2 of the paper).
type State uint8

// Ray traversal states.
const (
	// StateEmpty marks a slot holding no work (the pool is exhausted or
	// the slot was never filled).
	StateEmpty State = iota
	// StateFetch marks a terminated slot that must fetch a new ray.
	StateFetch
	// StateInner marks a ray that must traverse inner nodes.
	StateInner
	// StateLeaf marks a ray that must test leaf objects.
	StateLeaf
)

func (s State) String() string {
	switch s {
	case StateEmpty:
		return "empty"
	case StateFetch:
		return "fetch"
	case StateInner:
		return "inner"
	case StateLeaf:
		return "leaf"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// SceneData is the GPU-resident scene: the flattened BVH plus the
// simulated base addresses of each array, used to generate memory
// traffic. Nodes and triangles are read through the L1 texture cache,
// matching Aila's kernel.
type SceneData struct {
	BVH *bvh.BVH

	NodeBase uint64
	TriBase  uint64
	RayBase  uint64
	HitBase  uint64
}

// NewSceneData lays out the scene in the simulated address space.
func NewSceneData(b *bvh.BVH) *SceneData {
	const base = uint64(0x1000_0000)
	nodeBytes := uint64(len(b.Nodes)) * bvh.NodeBytes
	triBytes := uint64(len(b.Tris)) * bvh.TriBytes
	return &SceneData{
		BVH:      b,
		NodeBase: base,
		TriBase:  base + align(nodeBytes),
		RayBase:  base + align(nodeBytes) + align(triBytes),
		HitBase:  base + align(nodeBytes) + align(triBytes) + 1<<30,
	}
}

func align(n uint64) uint64 { return (n + 4095) &^ 4095 }

// NodeAddr returns the simulated address of inner node i.
func (d *SceneData) NodeAddr(i int32) uint64 {
	return d.NodeBase + uint64(i)*bvh.NodeBytes
}

// TriAddr returns the simulated address of reordered triangle i.
func (d *SceneData) TriAddr(i int32) uint64 {
	return d.TriBase + uint64(i)*bvh.TriBytes
}

// RayAddr returns the simulated address of pool ray i.
func (d *SceneData) RayAddr(i int32) uint64 {
	return d.RayBase + uint64(i)*32
}

// HitAddr returns the simulated address of hit record i.
func (d *SceneData) HitAddr(i int32) uint64 {
	return d.HitBase + uint64(i)*16
}

// Pool is one SMX's slice of the ray stream, consumed by terminated
// threads. Each SMX owns a pool, so no synchronization is needed.
type Pool struct {
	Rays []geom.Ray
	next int
}

// Fetch pops the next ray, returning its pool index, or ok=false when
// the pool is dry.
func (p *Pool) Fetch() (geom.Ray, int32, bool) {
	if p.next >= len(p.Rays) {
		return geom.Ray{}, 0, false
	}
	r := p.Rays[p.next]
	i := int32(p.next)
	p.next++
	return r, i, true
}

// Remaining returns the number of unfetched rays.
func (p *Pool) Remaining() int { return len(p.Rays) - p.next }

// slotTable is the thread state both kernels keep: per slot, the ray
// state and the index of the slot's traversal context in an arena.
//
// A slot binds the next arena entry at its first successful fetch and
// keeps it for the rest of the run. Every successful fetch consumes a
// distinct pool ray, so at most min(slots, rays) slots ever bind, and
// that is the arena's size. Binding is permanent, so no free list is
// needed, and the policies that regroup threads (DRS's row moves, DMK,
// TBC, SER) move slot ids, never contexts. Entries are taken with a
// counter into the pre-sized arena, so a broken bound faults on the
// index instead of growing it.
type slotTable struct {
	state []State
	ctxOf []int32 // arena index per slot; -1 until the slot's first fetch
	arena []Ctx
	taken int32
	// blank is what a slot that has not fetched reads: no ray and no
	// traversal work, as a context fresh from the constructor. Nothing
	// writes it.
	blank Ctx
}

// newSlotTable builds the table of a kernel with the given numbers of
// slots and pool rays, with traversal stacks for a BVH of depth
// maxDepth. Every slot starts in the fetch state.
func newSlotTable(slots, rays, maxDepth int) slotTable {
	n := min(slots, rays)
	depth := maxDepth + 1
	t := slotTable{
		state: make([]State, slots),
		ctxOf: make([]int32, slots),
		arena: make([]Ctx, n),
		blank: Ctx{Cur: RefNone, Pending: RefNone, CurLeaf: RefNone},
	}
	stacks := make([]int64, n*depth)
	for i := range t.arena {
		t.arena[i].Stack = stacks[i*depth : (i+1)*depth : (i+1)*depth]
	}
	for i := range t.state {
		t.state[i] = StateFetch
		t.ctxOf[i] = -1
	}
	return t
}

// ctx returns a slot's context, or the read-only blank if the slot has
// not fetched.
func (t *slotTable) ctx(slot int32) *Ctx {
	if i := t.ctxOf[slot]; i >= 0 {
		return &t.arena[i]
	}
	return &t.blank
}

// fetch pops the next pool ray into a slot's context, binding an arena
// entry at the slot's first successful fetch, and emits the ray load.
// It returns false, touching nothing, when the pool is dry.
func (t *slotTable) fetch(slot int32, pool *Pool, data *SceneData, res *simt.StepResult) bool {
	r, idx, ok := pool.Fetch()
	if !ok {
		return false
	}
	i := t.ctxOf[slot]
	if i < 0 {
		i = t.taken
		t.taken++
		t.ctxOf[slot] = i
	}
	t.arena[i].initRay(r, idx)
	res.Mem[0] = rayLoad(data, idx)
	res.NMem = 1
	return true
}

// initRay loads a fresh ray into the context.
func (c *Ctx) initRay(r geom.Ray, index int32) {
	c.Ray = r
	c.InvDir = r.InvDir()
	c.Hit = geom.NoHit
	c.Hit.T = r.TMax
	c.SP = 0
	c.Cur = innerChild(0) // root
	c.Pending = RefNone
	c.CurLeaf = RefNone
	c.LeafIdx = 0
	c.RayIndex = index
}

// push adds a child reference to the traversal stack. Stack's
// MaxDepth+1 entries always suffice:
//
//   - Near-first traversal pushes at most one reference per visited
//     inner node: the far child, and only when both children are hit.
//   - Visiting an inner node at depth d (root = 0), every entry on the
//     stack was pushed by one of the node's d strict ancestors, at most
//     one each, so the stack holds at most d entries; after the push,
//     at most d+1.
//   - A pop resumes at the far child an ancestor at depth a pushed, a
//     node at depth a+1, with at most a entries left below it, so the
//     rule holds there too.
//   - The deepest inner node is at depth MaxDepth-1, so SP <= MaxDepth.
//   - Aila's speculative traversal parks a leaf in Pending and pops; it
//     never pushes. Any-hit clears the stack.
//   - bvh.Build and BuildLBVH wrap a lone leaf in a synthesized root
//     whose right box is empty while MaxDepth stays 0. The slab test
//     does not reject an empty box, so that root, an inner node at
//     depth 0, pushes its count-0 right leaf: the one entry beyond
//     MaxDepth.
func (c *Ctx) push(ref int64) {
	c.Stack[c.SP] = ref
	c.SP++
}

// pop removes and returns the top reference, or RefNone if empty.
func (c *Ctx) pop() int64 {
	if c.SP == 0 {
		return RefNone
	}
	c.SP--
	return c.Stack[c.SP]
}

// nodeStep visits the inner node in c.Cur: tests both children and
// advances Cur (near child), pushing the far child. Returns the fetch
// address of the visited node. On return, Cur holds the next reference
// (inner, leaf, or RefNone when traversal is exhausted).
func (c *Ctx) nodeStep(d *SceneData) uint64 {
	idx := int32(c.Cur)
	n := &d.BVH.Nodes[idx]
	r := c.Ray
	r.TMax = c.Hit.T
	tl, okl := n.LBounds.IntersectRay(r, c.InvDir)
	tr, okr := n.RBounds.IntersectRay(r, c.InvDir)
	lRef := childOf(n.Left, n.LCount)
	rRef := childOf(n.Right, n.RCount)
	switch {
	case okl && okr:
		near, far := lRef, rRef
		if tr < tl {
			near, far = rRef, lRef
		}
		c.push(far)
		c.Cur = near
	case okl:
		c.Cur = lRef
	case okr:
		c.Cur = rRef
	default:
		c.Cur = c.pop()
	}
	return d.NodeAddr(idx)
}

// triStep tests triangle LeafIdx of the current leaf, advancing the
// index. Returns the triangle fetch address and whether the leaf has
// more triangles after this one.
func (c *Ctx) triStep(d *SceneData) (addr uint64, more bool) {
	first, count := leafBounds(c.CurLeaf)
	i := first + c.LeafIdx
	addr = d.TriAddr(i)
	if t, u, v, ok := d.BVH.Tris[i].Intersect(c.Ray, c.Hit.T); ok {
		c.Hit.T = t
		c.Hit.U = u
		c.Hit.V = v
		c.Hit.TriIndex = d.BVH.TriIndex[i]
	}
	c.LeafIdx++
	return addr, c.LeafIdx < count
}

// beginLeaf arranges for the context to start testing the given leaf.
// Empty (zero-count) leaves are skipped, returning false.
func (c *Ctx) beginLeaf(ref int64) bool {
	_, count := leafBounds(ref)
	if count == 0 {
		return false
	}
	c.CurLeaf = ref
	c.LeafIdx = 0
	return true
}

// abortTraversal clears all remaining traversal work (used by any-hit
// queries once occlusion is established).
func (c *Ctx) abortTraversal() {
	c.SP = 0
	c.Cur = RefNone
	c.Pending = RefNone
	c.CurLeaf = RefNone
	c.LeafIdx = 0
}

// finalHit returns the hit to commit (NoHit if nothing was found).
func (c *Ctx) finalHit() geom.Hit {
	if c.Hit.TriIndex < 0 {
		return geom.NoHit
	}
	return c.Hit
}

// texAccess builds a texture-path memory access.
func texAccess(addr uint64, bytes uint32) simt.MemAccess {
	return simt.MemAccess{Addr: addr, Bytes: bytes, Space: memsys.Tex}
}

// dataAccess builds a data-path memory access.
func dataAccess(addr uint64, bytes uint32) simt.MemAccess {
	return simt.MemAccess{Addr: addr, Bytes: bytes, Space: memsys.Data}
}
