// Package bvh builds and traverses bounding volume hierarchies over
// triangle scenes. The builder is a binned surface-area-heuristic (SAH)
// builder; the flattened node layout mirrors the Aila-style GPU layout
// (each inner node stores both children's bounds) so the simulated
// traversal kernels and the memory model can address nodes and
// triangles as fixed-size records.
package bvh

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/vec"
)

// Memory layout constants used by the simulated kernels' address model.
const (
	// NodeBytes is the simulated size of one inner node (two child
	// AABBs plus child indices, as in Aila's Kepler kernel layout).
	NodeBytes = 64
	// TriBytes is the simulated size of one triangle record (Woop
	// transform sized).
	TriBytes = 48
)

// Leaf child encoding: children >= 0 are inner node indices; children
// < 0 encode a leaf as ^child = first-triangle index, with the count in
// the corresponding count field.

// Node is one inner node of the flattened BVH. Each node holds both
// children's bounds so a traversal step tests two boxes per node fetch.
type Node struct {
	LBounds, RBounds geom.AABB
	// Left/Right: inner node index if >= 0, otherwise leaf with first
	// triangle ^Left (or ^Right) and LCount/RCount triangles.
	Left, Right    int32
	LCount, RCount int32
}

// BVH is a flattened bounding volume hierarchy.
type BVH struct {
	Nodes []Node
	// Tris are the scene triangles reordered so each leaf is a
	// contiguous range.
	Tris []geom.Triangle
	// TriIndex maps reordered triangle positions to original scene
	// triangle indices.
	TriIndex []int32
	// Bounds is the root bounding box.
	Bounds geom.AABB
	// MaxDepth is the deepest leaf's depth (root = 0); it bounds the
	// traversal stack the simulated kernels need.
	MaxDepth int
}

// Options control BVH construction.
type Options struct {
	// MaxLeafSize is the largest number of triangles a leaf may hold.
	MaxLeafSize int
	// NumBins is the number of SAH bins per axis.
	NumBins int
	// TraversalCost is the SAH cost of one traversal step relative to
	// one intersection test.
	TraversalCost float32
}

// DefaultOptions returns the builder configuration used throughout the
// experiments: 8-triangle leaves, 16 bins.
func DefaultOptions() Options {
	return Options{MaxLeafSize: 8, NumBins: 16, TraversalCost: 1.2}
}

type primInfo struct {
	index    int32
	bounds   geom.AABB
	centroid [3]float32
}

// sahBin is one SAH bin: the primitives whose centroids fall in it.
type sahBin struct {
	count  int
	bounds geom.AABB
}

type builder struct {
	opts  Options
	prims []primInfo
	tris  []geom.Triangle
	nodes []Node
	order []int32
	depth int
	// chooseSplit's scratch, NumBins entries each, made once per Build.
	bins      []sahBin
	leftArea  []float32
	leftCount []int
}

// Build constructs a BVH over tris with the given options.
func Build(tris []geom.Triangle, opts Options) (*BVH, error) {
	if len(tris) == 0 {
		return nil, fmt.Errorf("bvh: empty triangle list")
	}
	if opts.MaxLeafSize <= 0 {
		opts.MaxLeafSize = DefaultOptions().MaxLeafSize
	}
	if opts.NumBins < 2 {
		opts.NumBins = DefaultOptions().NumBins
	}
	if opts.TraversalCost <= 0 {
		opts.TraversalCost = DefaultOptions().TraversalCost
	}
	// Every inner node splits its range into two non-empty halves, so
	// n triangles make at most n-1 of them, and the synthesized root
	// below exists only when there are none: len(tris) nodes suffice,
	// and the builder's node scratch never grows.
	nb := opts.NumBins
	b := &builder{
		opts:      opts,
		tris:      tris,
		prims:     make([]primInfo, len(tris)),
		nodes:     make([]Node, 0, len(tris)),
		order:     make([]int32, 0, len(tris)),
		bins:      make([]sahBin, nb),
		leftArea:  make([]float32, nb),
		leftCount: make([]int, nb),
	}
	for i, t := range tris {
		bb := t.Bounds()
		c := bb.Centroid()
		b.prims[i] = primInfo{index: int32(i), bounds: bb, centroid: [3]float32{c.X, c.Y, c.Z}}
	}
	root := b.build(0, len(b.prims), 0)
	// If the whole scene became a single leaf, synthesize a root node
	// whose left child is the leaf and whose right child is an empty
	// leaf.
	if root.isLeaf {
		b.nodes = append(b.nodes, Node{
			LBounds: root.bounds, RBounds: geom.EmptyAABB(),
			Left: ^root.leafStart, LCount: root.leafCount,
			Right: ^int32(0), RCount: 0,
		})
	}
	bvh := &BVH{
		Nodes:    make([]Node, len(b.nodes)),
		Tris:     make([]geom.Triangle, len(b.order)),
		TriIndex: b.order,
		MaxDepth: b.depth,
	}
	copy(bvh.Nodes, b.nodes)
	for i, oi := range b.order {
		bvh.Tris[i] = tris[oi]
	}
	bvh.Bounds = root.bounds
	return bvh, nil
}

type buildResult struct {
	isLeaf    bool
	nodeIndex int32
	leafStart int32
	leafCount int32
	bounds    geom.AABB
}

func (b *builder) build(start, end, depth int) buildResult {
	if depth > b.depth {
		b.depth = depth
	}
	count := end - start
	bounds := geom.EmptyAABB()
	cbounds := geom.EmptyAABB()
	for i := start; i < end; i++ {
		bounds = bounds.Union(b.prims[i].bounds)
		c := b.prims[i].centroid
		cbounds = cbounds.Extend(vec.V3{X: c[0], Y: c[1], Z: c[2]})
	}
	if count <= b.opts.MaxLeafSize {
		return b.makeLeaf(start, end, bounds)
	}
	axis, split, ok := b.chooseSplit(start, end, bounds, cbounds, count)
	if !ok {
		// Degenerate centroids: median split on the largest axis.
		axis = cbounds.Diagonal().MaxAxis()
		mid := start + count/2
		sort.Slice(b.prims[start:end], func(i, j int) bool {
			return b.prims[start+i].centroid[axis] < b.prims[start+j].centroid[axis]
		})
		split = mid
	}
	if split <= start || split >= end {
		split = start + count/2
	}
	nodeIdx := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{}) // reserve
	left := b.build(start, split, depth+1)
	right := b.build(split, end, depth+1)
	n := Node{LBounds: left.bounds, RBounds: right.bounds}
	if left.isLeaf {
		n.Left = ^left.leafStart
		n.LCount = left.leafCount
	} else {
		n.Left = left.nodeIndex
	}
	if right.isLeaf {
		n.Right = ^right.leafStart
		n.RCount = right.leafCount
	} else {
		n.Right = right.nodeIndex
	}
	b.nodes[nodeIdx] = n
	return buildResult{nodeIndex: nodeIdx, bounds: bounds}
}

func (b *builder) makeLeaf(start, end int, bounds geom.AABB) buildResult {
	leafStart := int32(len(b.order))
	for i := start; i < end; i++ {
		b.order = append(b.order, b.prims[i].index)
	}
	return buildResult{
		isLeaf:    true,
		leafStart: leafStart,
		leafCount: int32(end - start),
		bounds:    bounds,
	}
}

// chooseSplit performs binned SAH on the centroid bounds. It partitions
// prims[start:end] in place and returns the split point.
func (b *builder) chooseSplit(start, end int, bounds, cbounds geom.AABB, count int) (axis, split int, ok bool) {
	diag := cbounds.Diagonal()
	axis = diag.MaxAxis()
	extent := diag.Axis(axis)
	if extent <= 1e-7 {
		return axis, 0, false
	}
	nb := b.opts.NumBins
	bins := b.bins
	for i := range bins {
		bins[i] = sahBin{bounds: geom.EmptyAABB()}
	}
	lo := cbounds.Min.Axis(axis)
	scale := float32(nb) / extent
	binOf := func(c float32) int {
		k := int((c - lo) * scale)
		if k < 0 {
			k = 0
		}
		if k >= nb {
			k = nb - 1
		}
		return k
	}
	for i := start; i < end; i++ {
		k := binOf(b.prims[i].centroid[axis])
		bins[k].count++
		bins[k].bounds = bins[k].bounds.Union(b.prims[i].bounds)
	}
	// Sweep to find the cheapest split plane.
	leftArea, leftCount := b.leftArea, b.leftCount
	acc := geom.EmptyAABB()
	cnt := 0
	for i := 0; i < nb-1; i++ {
		acc = acc.Union(bins[i].bounds)
		cnt += bins[i].count
		leftArea[i] = acc.SurfaceArea()
		leftCount[i] = cnt
	}
	bestCost := float32(geom.Inf)
	bestBin := -1
	acc = geom.EmptyAABB()
	cnt = 0
	total := bounds.SurfaceArea()
	if total <= 0 {
		return axis, 0, false
	}
	for i := nb - 1; i >= 1; i-- {
		acc = acc.Union(bins[i].bounds)
		cnt += bins[i].count
		lc := leftCount[i-1]
		rc := cnt
		if lc == 0 || rc == 0 {
			continue
		}
		cost := b.opts.TraversalCost +
			(leftArea[i-1]*float32(lc)+acc.SurfaceArea()*float32(rc))/total
		if cost < bestCost {
			bestCost = cost
			bestBin = i - 1
		}
	}
	leafCost := float32(count)
	if bestBin < 0 || (bestCost >= leafCost && count <= 4*b.opts.MaxLeafSize) {
		return axis, 0, false
	}
	// Partition in place around the chosen bin boundary.
	i, j := start, end-1
	for i <= j {
		if binOf(b.prims[i].centroid[axis]) <= bestBin {
			i++
		} else {
			b.prims[i], b.prims[j] = b.prims[j], b.prims[i]
			j--
		}
	}
	return axis, i, i > start && i < end
}
