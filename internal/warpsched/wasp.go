package warpsched

import (
	"fmt"

	"repro/internal/simt"
)

// WaSP is a distance-based prefetch-mimicking scheduler after "WaSP:
// Warp Scheduling to Mimic Prefetching in Graphics Workloads"
// (PAPERS.md): a few runner warps per scheduler race ahead of the
// pack, touching BVH nodes and triangles first so their DRAM misses
// warm the caches, and the following warps — held a configurable
// instruction distance behind — then hit the lines the runners already
// fetched.
//
// Preference order per scheduler, oldest-first (lowest warp id on
// ties) within each tier:
//
//  1. runners — the first Runners warps of the scheduler's stride — so
//     the warm-up front keeps extending its lead;
//  2. followers lagging the lead runner by at least Distance issued
//     instructions — far enough behind that the runner's accesses have
//     landed;
//  3. the other followers.
//
// The engine issues from the first issuable warp of the order, so tier
// 3 makes the policy soft: when only close followers can issue, they
// issue. WaSP never idles an issue slot to enforce the distance,
// so it cannot deadlock against gate/parking policies (DRS parks donor
// warps for whole bounce phases; a hard-blocking scheduler would wait
// on warps that cannot progress).
//
// Per-warp issue counters live in per-SMX state allocated by the
// factory; the bound Order/OnIssue funcs allocate nothing.
type WaSP struct {
	// Runners is the number of runner warps per scheduler (the warm-up
	// front). The paper-shaped default is 2 — with 4 schedulers per
	// SMX that is an 8-warp front per SMX.
	Runners int
	// Distance is the issued-instruction lead a runner must have over
	// a follower before the follower is preferred (tier 2). Default
	// 64, roughly the instruction footprint of one traversal+leaf
	// round trip at the paper's block sizes.
	Distance int64
}

// DefaultWaSP returns the default WaSP configuration (2 runners per
// scheduler, distance 64).
func DefaultWaSP() WaSP { return WaSP{Runners: 2, Distance: 64} }

// Name implements Scheduler.
func (WaSP) Name() string { return "wasp" }

// Summary implements Scheduler.
func (w WaSP) Summary() string {
	return "WaSP-style prefetch mimicry: runner warps race ahead to warm caches, followers trail at a distance"
}

// Validate implements Scheduler.
func (w WaSP) Validate() error {
	switch {
	case w.Runners < 1 || w.Runners > 256:
		return fmt.Errorf("warpsched: wasp runner count %d out of range [1,256]", w.Runners)
	case w.Distance < 1:
		return fmt.Errorf("warpsched: wasp distance %d must be positive", w.Distance)
	}
	return nil
}

// Factory implements Scheduler.
func (w WaSP) Factory() simt.SchedFactory {
	runners, distance := w.Runners, w.Distance
	return func(v simt.SchedView) simt.SchedProgram {
		st := &waspState{
			v:             v,
			firstFollower: runners * v.NumSchedulers(),
			distance:      distance,
			nsched:        v.NumSchedulers(),
			issued:        make([]int64, v.NumWarps()),
			runnerMax:     make([]int64, v.NumSchedulers()),
		}
		return simt.SchedProgram{Order: st.order, OnIssue: st.onIssue}
	}
}

// waspState is one SMX's WaSP instance: per-warp issue counters plus
// the per-scheduler lead-runner watermark. Single-goroutine, like the
// SMX that owns it.
type waspState struct {
	v simt.SchedView
	// firstFollower is the lowest follower id: warp w is a runner when
	// its rank w / nsched is below Runners, that is, w < firstFollower.
	firstFollower int
	distance      int64
	nsched        int
	// issued counts instructions issued per warp.
	issued []int64
	// runnerMax[sched] is the max issued count over the scheduler's
	// runner warps — the front the distance is measured from.
	runnerMax []int64
}

// onIssue maintains the progress counters; it runs once per issued
// instruction and allocates nothing.
func (st *waspState) onIssue(w int) {
	st.issued[w]++
	if w < st.firstFollower {
		if sched := w % st.nsched; st.issued[w] > st.runnerMax[sched] {
			st.runnerMax[sched] = st.issued[w]
		}
	}
}

// order walks the engine's age list once and appends each warp to its
// tier's chain, then joins the three chains. The age list runs
// oldest-first with ties lowest-id first, so each tier is in that
// order too.
func (st *waspState) order(sched int, link []int32) int32 {
	lead := st.runnerMax[sched]
	head, tail := [3]int32{-1, -1, -1}, [3]int32{-1, -1, -1}
	for w := st.v.Oldest(sched); w >= 0; w = st.v.Younger(w) {
		t := 2
		switch {
		case w < st.firstFollower:
			t = 0
		case lead-st.issued[w] >= st.distance:
			t = 1
		}
		if tail[t] < 0 {
			head[t] = int32(w)
		} else {
			link[tail[t]] = int32(w)
		}
		tail[t] = int32(w)
	}
	first, last := int32(-1), int32(-1)
	for t := range head {
		if head[t] < 0 {
			continue
		}
		if last < 0 {
			first = head[t]
		} else {
			link[last] = head[t]
		}
		last = tail[t]
	}
	if last >= 0 {
		link[last] = -1
	}
	return first
}
