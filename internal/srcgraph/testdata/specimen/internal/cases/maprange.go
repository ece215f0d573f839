// Package cases holds one function per behaviour of the hazard checks.
// A "// want <check>..." comment marks each line that must be reported,
// once per finding; every other line must stay quiet.
package cases

// mapRangeLocalMake ranges over a local made map.
func mapRangeLocalMake() int {
	m := make(map[int]int)
	best := 0
	for k := range m { // want map-range
		if k > best {
			best = k
		}
	}
	return best
}

type sched struct {
	queues map[int][]int
}

// pick ranges over a map-typed struct field.
func (s *sched) pick() int {
	for t := range s.queues { // want map-range
		return t
	}
	return -1
}

// mapRangeAllowed carries a line-level allow on the line above.
func mapRangeAllowed() int {
	m := make(map[int]int)
	n := 0
	//drslint:allow map-range -- pure count, order-insensitive
	for range m {
		n++
	}
	return n
}

// init functions are linted like any other; this package has two.
func init() {
	for k := range map[int]int{1: 1} { // want map-range
		_ = k
	}
}

// sliceRange ranges over a slice, which has an order.
func sliceRange(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
