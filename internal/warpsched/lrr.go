package warpsched

import "repro/internal/simt"

// LRR is loose round-robin: rotate through the scheduler's warps
// starting one past the warp it last issued from, taking the first
// issuable one. Warps progress in lockstep-ish fashion, which spreads
// memory accesses evenly but gives up GTO's latency-hiding greediness
// — the classic ablation baseline.
type LRR struct{}

// NewLRR returns the loose round-robin scheduler.
func NewLRR() LRR { return LRR{} }

// Name implements Scheduler.
func (LRR) Name() string { return "lrr" }

// Summary implements Scheduler.
func (LRR) Summary() string {
	return "loose round-robin: rotate past the last issuing warp, first issuable wins"
}

// Validate implements Scheduler; LRR has no parameters.
func (LRR) Validate() error { return nil }

// Factory implements Scheduler. The order links the scheduler's warps
// in id order as a ring, then cuts the ring after the warp it last
// issued from, or after its highest warp before its first issue, so
// the order starts one past it.
func (LRR) Factory() simt.SchedFactory {
	return func(v simt.SchedView) simt.SchedProgram {
		n, nwarps := v.NumSchedulers(), v.NumWarps()
		return simt.SchedProgram{Order: func(sched int, link []int32) int32 {
			if sched >= nwarps {
				return -1 // fewer warps than schedulers
			}
			last := sched + (nwarps-1-sched)/n*n
			for w := sched; w < last; w += n {
				link[w] = int32(w + n)
			}
			link[last] = int32(sched)
			if p := v.LastPicked(sched); p >= 0 {
				last = p
			}
			first := link[last]
			link[last] = -1
			return first
		}}
	}
}
