//drslint:hotpath

package cases

// hotSeed is initialized in a file-level tagged file, so the tag covers
// its initializer too.
var hotSeed = map[int]int{0: 1} // want hotpath-alloc

// hotMapMake allocates a map in a file-level tagged file.
func hotMapMake() {
	seen := make(map[int]uint32, 4) // want hotpath-alloc
	seen[1] = 2
}

func hotMapLiteral() map[int]int {
	return map[int]int{1: 2} // want hotpath-alloc
}

// hotFreshAppend grows a made slice and a nil-declared one.
func hotFreshAppend(n int) ([]int, []int) {
	out := make([]int, 0, n)
	var grown []int
	for i := 0; i < n; i++ {
		out = append(out, i)     // want hotpath-alloc
		grown = append(grown, i) // want hotpath-alloc
	}
	return out, grown
}

type warp struct {
	uniqBuf []int
	stack   []int
}

// resolve is the pooled idiom hot code should use: reslice a field to
// length zero, append, store back; appends to fields pass too.
func (w *warp) resolve(targets []int) {
	uniq := w.uniqBuf[:0]
	for _, t := range targets {
		uniq = append(uniq, t)
	}
	w.uniqBuf = uniq
	w.stack = append(w.stack, len(uniq))
}

func hotAllowed() {
	//drslint:allow hotpath-alloc -- runs once per kernel launch, not per cycle
	m := make(map[int]int)
	_ = m
}

// hotPlainMake allocates without growth: not churn.
func hotPlainMake(n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(i)
	}
	return slots
}
