package simt

import (
	"math/rand"
	"testing"
)

// scriptKernel drives each slot through a pre-generated random control
// flow over a structured graph (outer loop containing an inner loop and
// an if/else). The engine's reconvergence machinery must execute every
// slot's exact block sequence regardless of how warps are scheduled or
// how divergence interleaves.
type scriptKernel struct {
	blocks []BlockInfo
	// per-slot script
	rounds  []int   // outer loop rounds
	iters   [][]int // inner loop iterations per round
	takeIf  [][]bool
	round   []int
	iter    []int
	visited [][]int // executed block trace per slot
}

const (
	sbOuter = 0 // outer loop body head
	sbInner = 1 // inner loop block
	sbCond  = 2 // if condition
	sbThen  = 3
	sbElse  = 4
	sbJoin  = 5 // if join + outer loop latch
)

func newScriptKernel(slots int, seed int64) *scriptKernel {
	rnd := rand.New(rand.NewSource(seed))
	k := &scriptKernel{
		blocks: []BlockInfo{
			sbOuter: {Name: "outer", Insts: 2},
			sbInner: {Name: "inner", Insts: 3, Reconv: sbCond},
			sbCond:  {Name: "cond", Insts: 1, Reconv: sbJoin},
			sbThen:  {Name: "then", Insts: 2},
			sbElse:  {Name: "else", Insts: 4},
			sbJoin:  {Name: "join", Insts: 2, Reconv: sbOuter},
		},
		rounds:  make([]int, slots),
		iters:   make([][]int, slots),
		takeIf:  make([][]bool, slots),
		round:   make([]int, slots),
		iter:    make([]int, slots),
		visited: make([][]int, slots),
	}
	for s := 0; s < slots; s++ {
		k.rounds[s] = 1 + rnd.Intn(3)
		for r := 0; r < k.rounds[s]; r++ {
			k.iters[s] = append(k.iters[s], 1+rnd.Intn(4))
			k.takeIf[s] = append(k.takeIf[s], rnd.Intn(2) == 0)
		}
	}
	return k
}

func (k *scriptKernel) Blocks() []BlockInfo { return k.blocks }
func (k *scriptKernel) Entry() int          { return sbOuter }

func (k *scriptKernel) Step(slot int32, block int, res *StepResult) {
	s := int(slot)
	k.visited[s] = append(k.visited[s], block)
	switch block {
	case sbOuter:
		k.iter[s] = 0
		res.Next = sbInner
	case sbInner:
		k.iter[s]++
		if k.iter[s] < k.iters[s][k.round[s]] {
			res.Next = sbInner
		} else {
			res.Next = sbCond
		}
	case sbCond:
		if k.takeIf[s][k.round[s]] {
			res.Next = sbThen
		} else {
			res.Next = sbElse
		}
	case sbThen, sbElse:
		res.Next = sbJoin
	case sbJoin:
		k.round[s]++
		if k.round[s] < k.rounds[s] {
			res.Next = sbOuter
		} else {
			res.Next = BlockExit
		}
	}
}

// expected reconstructs the block trace slot s should have executed.
func (k *scriptKernel) expected(s int) []int {
	var out []int
	for r := 0; r < k.rounds[s]; r++ {
		out = append(out, sbOuter)
		for i := 0; i < k.iters[s][r]; i++ {
			out = append(out, sbInner)
		}
		out = append(out, sbCond)
		if k.takeIf[s][r] {
			out = append(out, sbThen)
		} else {
			out = append(out, sbElse)
		}
		out = append(out, sbJoin)
	}
	return out
}

func TestRandomScriptsExecuteExactly(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, pol := range []struct {
			name    string
			factory SchedFactory
		}{{"gto", nil}, {"lrr", lrrFactory}} {
			warps := 5
			k := newScriptKernel(warps*32, seed)
			cfg := smallConfig(warps)
			cfg.SchedFactory = pol.factory
			s := newTestSMX(t, cfg, k, Hooks{})
			s.LaunchAll(0)
			st, err := s.Run()
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, pol.name, err)
			}
			if st.Retired != int64(warps*32) {
				t.Fatalf("seed %d %v: retired %d", seed, pol.name, st.Retired)
			}
			for slot := 0; slot < warps*32; slot++ {
				want := k.expected(slot)
				got := k.visited[slot]
				if len(got) != len(want) {
					t.Fatalf("seed %d %v slot %d: trace length %d, want %d\n got %v\nwant %v",
						seed, pol.name, slot, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %v slot %d: step %d block %d, want %d",
							seed, pol.name, slot, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Instruction accounting property: total active-thread instruction mass
// must equal the per-slot sum of visited blocks' instruction counts.
func TestInstructionMassConserved(t *testing.T) {
	warps := 4
	k := newScriptKernel(warps*32, 42)
	cfg := smallConfig(warps)
	s := newTestSMX(t, cfg, k, Hooks{})
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for slot := 0; slot < warps*32; slot++ {
		for _, b := range k.visited[slot] {
			want += int64(k.blocks[b].Insts)
		}
	}
	if st.ActiveThreadSum != want {
		t.Errorf("active thread-instruction mass %d, want %d", st.ActiveThreadSum, want)
	}
}
