// Package simt is a miniature engine mirroring the shape of the real
// one, used by the srcgraph tests to pin each analyzer's behavior. The
// det-root rules match this package path (suffix internal/simt), and
// every seeded hazard below must keep firing: a loader regression that
// silently emptied the call graph would otherwise be indistinguishable
// from a clean run.
package simt

import (
	"math/rand"
	"time"
)

// State is the engine's per-run state.
type State struct {
	Cells   map[int]int
	scratch map[int]int
	Stamp   int64
}

// RunGPU is a determinism root by rule: exported, package-level, in a
// package whose import path ends in internal/simt.
func RunGPU(s *State) int {
	return helperA(s) + sortedTotal(s)
}

// helperA is deliberately untagged: one call below the root.
func helperA(s *State) int {
	s.Stamp = stampNow()
	return helperB(s.Cells) + jitter()
}

// helperB ranges over a map two calls below the determinism root. The
// map arrives as a parameter, so only its type says it is a map; the
// finding must carry the witness chain RunGPU -> helperA -> helperB.
func helperB(cells map[int]int) int {
	sum := 0
	for k := range cells { // want map-range
		sum += k
	}
	return sum
}

// stampNow reads the wall clock two calls below the root.
func stampNow() int64 {
	return time.Now().UnixNano() // want wallclock
}

// jitter draws from the process-global RNG.
func jitter() int {
	return rand.Intn(8) // want global-rand
}

// stepOnce is a function-granular hot root: only its doc comment
// carries the directive, so the rest of the file stays untagged.
//
//drslint:hotpath
func stepOnce(s *State) {
	mid(s)
}

// mid is untagged, between the hot root and the allocation.
func mid(s *State) {
	leafAlloc(s)
}

// leafAlloc allocates a map two calls below the hot root.
func leafAlloc(s *State) {
	s.scratch = make(map[int]int, 4) // want hotpath-alloc
}

// sortedTotal pins the suppression grammar: the range is
// order-insensitive and carries a line-level allow, so it must not be
// reported.
func sortedTotal(s *State) int {
	n := 0
	//drslint:allow map-range -- pure sum, order-insensitive
	for _, v := range s.Cells {
		n += v
	}
	return n
}
