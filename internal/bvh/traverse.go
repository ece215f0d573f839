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
func (b *BVH) Intersect(r geom.Ray, stats *TraversalStats) geom.Hit {
	hit := geom.NoHit
	hit.T = r.TMax
	invDir := r.InvDir()
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	if len(b.Nodes) == 0 {
		return geom.NoHit
	}
	for sp > 0 {
		sp--
		ni := stack[sp]
		n := &b.Nodes[ni]
		if stats != nil {
			stats.NodesVisited++
		}
		rr := r
		rr.TMax = hit.T
		tl, okl := n.LBounds.IntersectRay(rr, invDir)
		tr, okr := n.RBounds.IntersectRay(rr, invDir)
		// Visit nearer child first by pushing the farther one below.
		type childRef struct {
			idx   int32
			count int32
			t     float32
		}
		var near, far childRef
		hasNear, hasFar := false, false
		if okl && okr {
			if tl <= tr {
				near = childRef{n.Left, n.LCount, tl}
				far = childRef{n.Right, n.RCount, tr}
			} else {
				near = childRef{n.Right, n.RCount, tr}
				far = childRef{n.Left, n.LCount, tl}
			}
			hasNear, hasFar = true, true
		} else if okl {
			near = childRef{n.Left, n.LCount, tl}
			hasNear = true
		} else if okr {
			near = childRef{n.Right, n.RCount, tr}
			hasNear = true
		}
		process := func(c childRef) {
			if c.idx >= 0 {
				stack[sp] = c.idx
				sp++
				return
			}
			first := ^c.idx
			if c.count == 0 {
				return // empty leaf (padded root)
			}
			if stats != nil {
				stats.LeavesTested++
			}
			for i := first; i < first+c.count; i++ {
				if stats != nil {
					stats.TrisTested++
				}
				if t, u, v, ok := b.Tris[i].Intersect(r, hit.T); ok {
					hit.T = t
					hit.U = u
					hit.V = v
					hit.TriIndex = b.TriIndex[i]
				}
			}
		}
		if hasFar {
			// Push far child first so near is processed next.
			if far.idx >= 0 {
				stack[sp] = far.idx
				sp++
			} else {
				process(far)
			}
		}
		if hasNear {
			process(near)
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
			if _, ok := box.IntersectRay(r, invDir); !ok {
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
