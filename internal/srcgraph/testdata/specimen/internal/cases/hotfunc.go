package cases

/* //drslint:hotpath */

// step is per-cycle.
//
//drslint:hotpath
func step() map[int]int { return make(map[int]int) } // want hotpath-alloc

// setup shares step's file but not its tag.
func setup() map[int]int { return make(map[int]int) }

// untagged allocates outside the hot cone.
func untagged() map[int]int {
	out := make([]int, 0, 4)
	out = append(out, 1)
	_ = out
	return make(map[int]int)
}

/* //drslint:hotpath */
func blockTagged() map[int]int { return make(map[int]int) }
