package simt

import (
	"testing"

	"repro/internal/memsys"
)

// divergeKernel drives the engine's divergence-split path hard: every
// iteration of its loop body splits the warp four ways (by lane%4) and
// reconverges, `rounds` times per lane. It exists to benchmark
// SMX.resolve's target-gathering, which runs once per completed block
// per warp — the hottest control-flow path of the simulator.
type divergeKernel struct {
	rounds int
	iters  []int
}

func newDivergeKernel(slots, rounds int) *divergeKernel {
	return &divergeKernel{rounds: rounds, iters: make([]int, slots)}
}

func (k *divergeKernel) Blocks() []BlockInfo {
	return []BlockInfo{
		{Name: "head", Insts: 1, Reconv: 5}, // 0: 4-way split point
		{Name: "a", Insts: 1},               // 1
		{Name: "b", Insts: 1},               // 2
		{Name: "c", Insts: 1},               // 3
		{Name: "d", Insts: 1},               // 4
		{Name: "join", Insts: 1},            // 5: loop back or exit (never diverges)
	}
}

func (k *divergeKernel) Entry() int { return 0 }

func (k *divergeKernel) Step(slot int32, block int, res *StepResult) {
	switch block {
	case 0:
		res.Next = 1 + int(slot)%4
	case 1, 2, 3, 4:
		res.Next = 5
	case 5:
		k.iters[slot]++
		if k.iters[slot] < k.rounds {
			res.Next = 0
		} else {
			res.Next = BlockExit
		}
	}
}

func (k *divergeKernel) reset() {
	for i := range k.iters {
		k.iters[i] = 0
	}
}

// BenchmarkDivergeSplit measures the per-divergence cost of the resolve
// path: 8 warps x 64 rounds of a 4-way split + reconverge. B/op is the
// headline number — the split path must not allocate per divergence
// (scratch lives on the SMX, stacks in the store's fixed windows), or
// full-suite runs spend their time in the garbage collector.
func BenchmarkDivergeSplit(b *testing.B) {
	cfg := smallConfig(8)
	k := newDivergeKernel(8*cfg.WarpSize, 64)
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	s, err := NewSMX(0, cfg, k, Hooks{}, l2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.reset()
		s.LaunchAll(0)
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
