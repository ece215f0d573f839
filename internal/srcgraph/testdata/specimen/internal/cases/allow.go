package cases

import "time"

// allowTwoChecks names two checks in one directive, both on the line
// below it.
func allowTwoChecks() int64 {
	var t0 int64
	//drslint:allow map-range wallclock -- seed helper: order-insensitive, stamps a log only
	for k := range map[int64]bool{time.Now().UnixNano(): true} {
		t0 = k
	}
	return t0
}

// allowTrailing puts the directive on the flagged line itself.
func allowTrailing() int {
	m := make(map[int]int)
	n := 0
	for range m { //drslint:allow map-range -- pure count, order-insensitive
		n++
	}
	return n
}

// allowParenthetical ignores everything after the first "--".
func allowParenthetical() int {
	m := make(map[int]int)
	n := 0
	//drslint:allow map-range -- order-insensitive (see DESIGN -- static analysis)
	for range m {
		n++
	}
	return n
}

// allowInBlockComment is not suppressed: the grammar is line comments.
func allowInBlockComment() int {
	m := make(map[int]int)
	n := 0
	/* //drslint:allow map-range -- not a real directive */
	for range m { // want map-range
		n++
	}
	return n
}

// allowWholeFunction suppresses map-range for its whole body.
//
//drslint:allow map-range -- both loops only count
func allowWholeFunction(a, b map[int]int) int {
	n := 0
	for range a {
		n++
	}
	for range b {
		n++
	}
	return n
}
