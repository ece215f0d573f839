package bvh

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/vec"
)

func errorfBVH(format string, args ...any) error {
	return fmt.Errorf("bvh: "+format, args...)
}

// TraversalStats accumulates work counters over one or more rays; the
// experiments use these to explain performance differences (e.g. sponza
// rays visiting more nodes than other scenes, §4.4).
type TraversalStats struct {
	NodesVisited int64
	LeavesTested int64
	TrisTested   int64
	Rays         int64
	Hits         int64
}

// Intersect finds the closest triangle hit by r, returning the hit with
// TriIndex referring to the ORIGINAL scene triangle index (via
// TriIndex), or geom.NoHit. The optional stats pointer accumulates
// work counters.
//
// At each node both child boxes are tested against (r.TMin, hit.T).
// The nearer hit child is visited first (tl <= tr picks the left one):
// the farther one is pushed below it, or tested at once if it is a
// leaf, and then the nearer one is pushed or tested. A leaf is tested
// when its parent is visited, never from the stack, so triangles are
// tested in a fixed order and a hit at an equal t keeps the first
// triangle found.
func (b *BVH) Intersect(r geom.Ray, stats *TraversalStats) geom.Hit {
	if len(b.Nodes) == 0 {
		return geom.NoHit
	}
	hit := geom.NoHit
	hit.T = r.TMax
	invDir := r.InvDir()
	var stack [64]int32
	stack[0] = 0
	sp := 1
	for sp > 0 {
		sp--
		n := &b.Nodes[stack[sp]]
		if stats != nil {
			stats.NodesVisited++
		}
		tl, okl := n.LBounds.IntersectRay(r.Origin, invDir, r.TMin, hit.T)
		tr, okr := n.RBounds.IntersectRay(r.Origin, invDir, r.TMin, hit.T)
		near, nearCount := n.Left, n.LCount
		switch {
		case okl && okr:
			far, farCount := n.Right, n.RCount
			if tr < tl {
				near, nearCount, far, farCount = far, farCount, near, nearCount
			}
			if far >= 0 {
				stack[sp] = far
				sp++
			} else {
				b.testLeaf(&r, ^far, farCount, &hit, stats)
			}
		case okl:
		case okr:
			near, nearCount = n.Right, n.RCount
		default:
			continue
		}
		if near >= 0 {
			stack[sp] = near
			sp++
		} else {
			b.testLeaf(&r, ^near, nearCount, &hit, stats)
		}
	}
	if stats != nil {
		stats.Rays++
		if hit.TriIndex >= 0 {
			stats.Hits++
		}
	}
	if hit.TriIndex < 0 {
		return geom.NoHit
	}
	return hit
}

// testLeaf tests the count triangles from first against r, narrowing
// hit to each closer one. A count-0 leaf is the empty right child of
// the root synthesized over a lone leaf.
func (b *BVH) testLeaf(r *geom.Ray, first, count int32, hit *geom.Hit, stats *TraversalStats) {
	if count == 0 {
		return
	}
	if stats != nil {
		stats.LeavesTested++
	}
	for i := first; i < first+count; i++ {
		if stats != nil {
			stats.TrisTested++
		}
		if t, u, v, ok := b.Tris[i].Intersect(*r, hit.T); ok {
			hit.T = t
			hit.U = u
			hit.V = v
			hit.TriIndex = b.TriIndex[i]
		}
	}
}

// IntersectAny reports whether r hits anything (shadow-ray query),
// terminating at the first hit found.
//
//drslint:allow unreachable -- the reference the any-hit kernel tests compare against
func (b *BVH) IntersectAny(r geom.Ray, stats *TraversalStats) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	invDir := r.InvDir()
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		ni := stack[sp]
		node := &b.Nodes[ni]
		if stats != nil {
			stats.NodesVisited++
		}
		check := func(idx, count int32, box geom.AABB) bool {
			if _, ok := box.IntersectRay(r.Origin, invDir, r.TMin, r.TMax); !ok {
				return false
			}
			if idx >= 0 {
				stack[sp] = idx
				sp++
				return false
			}
			first := ^idx
			if stats != nil && count > 0 {
				stats.LeavesTested++
			}
			for i := first; i < first+count; i++ {
				if stats != nil {
					stats.TrisTested++
				}
				if _, _, _, ok := b.Tris[i].Intersect(r, r.TMax); ok {
					return true
				}
			}
			return false
		}
		if check(node.Left, node.LCount, node.LBounds) {
			return true
		}
		if check(node.Right, node.RCount, node.RBounds) {
			return true
		}
	}
	return false
}

// LeafRanges iterates over all leaves, calling fn with each leaf's
// first triangle index and count. Used by validation and tests.
func (b *BVH) LeafRanges(fn func(first, count int32)) {
	for _, n := range b.Nodes {
		if n.Left < 0 && n.LCount > 0 {
			fn(^n.Left, n.LCount)
		}
		if n.Right < 0 && n.RCount > 0 {
			fn(^n.Right, n.RCount)
		}
	}
}

// Validate checks structural invariants: every triangle appears in
// exactly one leaf, child bounds contain their triangles, and child
// node indices are in range and acyclic (tree-shaped).
//
//drslint:allow unreachable -- the checker both builders' tests run on every scene
func (b *BVH) Validate() error {
	seen := make([]int, len(b.Tris))
	b.LeafRanges(func(first, count int32) {
		for i := first; i < first+count; i++ {
			if i >= 0 && int(i) < len(seen) {
				seen[i]++
			}
		}
	})
	for i, c := range seen {
		if c != 1 {
			return errorfBVH("triangle slot %d referenced %d times", i, c)
		}
	}
	// Bounds containment per child.
	for ni, n := range b.Nodes {
		if err := b.validateChild(ni, n.Left, n.LCount, n.LBounds); err != nil {
			return err
		}
		if err := b.validateChild(ni, n.Right, n.RCount, n.RBounds); err != nil {
			return err
		}
	}
	// Each inner node referenced at most once (acyclic, single parent).
	refs := make([]int, len(b.Nodes))
	for _, n := range b.Nodes {
		if n.Left >= 0 {
			refs[n.Left]++
		}
		if n.Right >= 0 {
			refs[n.Right]++
		}
	}
	for i := 1; i < len(refs); i++ {
		if refs[i] != 1 {
			return errorfBVH("node %d has %d parents", i, refs[i])
		}
	}
	if len(refs) > 0 && refs[0] != 0 {
		return errorfBVH("root has a parent")
	}
	return nil
}

func (b *BVH) validateChild(parent int, idx, count int32, bounds geom.AABB) error {
	if idx >= 0 {
		if int(idx) >= len(b.Nodes) {
			return errorfBVH("node %d child index %d out of range", parent, idx)
		}
		return nil
	}
	first := ^idx
	if count == 0 {
		return nil
	}
	if int(first+count) > len(b.Tris) {
		return errorfBVH("node %d leaf range [%d,%d) out of range", parent, first, first+count)
	}
	grow := bounds
	grow.Min = grow.Min.Sub(vec.Splat(1e-4))
	grow.Max = grow.Max.Add(vec.Splat(1e-4))
	for i := first; i < first+count; i++ {
		if !grow.ContainsBox(b.Tris[i].Bounds()) {
			return errorfBVH("node %d leaf triangle %d escapes child bounds", parent, i)
		}
	}
	return nil
}
