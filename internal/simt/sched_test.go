package simt_test

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/simt"
	"repro/internal/warpsched"
)

// stepKernel is a kernel given as its block table and a per-slot step
// func, entered at block 0.
type stepKernel struct {
	blocks []simt.BlockInfo
	step   func(slot int32, block int, res *simt.StepResult)
}

func (k stepKernel) Blocks() []simt.BlockInfo { return k.blocks }
func (k stepKernel) Entry() int               { return 0 }
func (k stepKernel) Step(slot int32, block int, res *simt.StepResult) {
	k.step(slot, block, res)
}

// runStandalone runs k to completion on one standalone SMX with warps
// resident warps, under sched (nil: the builtin GTO order).
func runStandalone(t *testing.T, warps int, sched warpsched.Scheduler, edit func(*simt.Config), k simt.Kernel) simt.Stats {
	t.Helper()
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 22
	if sched != nil {
		cfg.SchedFactory = sched.Factory()
	}
	if edit != nil {
		edit(&cfg)
	}
	s, err := simt.NewSMX(0, cfg, k, simt.Hooks{}, memsys.NewOrderedL2(cfg.Mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// GTO and registry LRR must complete the same kernel with identical
// retirement counts and identical total issued instructions
// (scheduling changes timing, not work).
func TestSchedulersDoSameWork(t *testing.T) {
	run := func(sched warpsched.Scheduler) simt.Stats {
		iters := make(map[int32]int)
		k := stepKernel{
			blocks: []simt.BlockInfo{
				{Name: "loop", Insts: 6, Reconv: 1},
				{Name: "tail", Insts: 2},
			},
			step: func(slot int32, block int, res *simt.StepResult) {
				switch block {
				case 0:
					iters[slot]++
					if iters[slot] <= int(slot%7) {
						res.Next = 0
					} else {
						res.Next = 1
					}
				case 1:
					res.Next = simt.BlockExit
				}
			},
		}
		return runStandalone(t, 6, sched, nil, k)
	}
	gto := run(nil)
	rr := run(warpsched.NewLRR())
	if gto.Retired != rr.Retired {
		t.Errorf("retired differ: %d vs %d", gto.Retired, rr.Retired)
	}
	if gto.WarpInstrs != rr.WarpInstrs {
		t.Errorf("instructions differ: %d vs %d", gto.WarpInstrs, rr.WarpInstrs)
	}
	if gto.Cycles == 0 || rr.Cycles == 0 {
		t.Errorf("cycles not recorded")
	}
}

// Registry LRR must rotate across warps instead of draining one.
func TestRRRotates(t *testing.T) {
	order := make([]int32, 0, 64)
	k := stepKernel{
		blocks: []simt.BlockInfo{{Name: "b", Insts: 1, Reconv: 0}},
		step: func(slot int32, block int, res *simt.StepResult) {
			if slot%32 == 0 { // one recorder lane per warp
				order = append(order, slot/32)
			}
			res.Next = simt.BlockExit
		},
	}
	runStandalone(t, 4, warpsched.NewLRR(), func(cfg *simt.Config) {
		cfg.SchedulersPerSMX = 1
		cfg.DispatchPerScheduler = 1
	}, k)
	if len(order) != 4 {
		t.Fatalf("expected 4 warp entries, got %d", len(order))
	}
	seen := map[int32]bool{}
	for _, w := range order {
		if seen[w] {
			t.Fatalf("warp %d entered twice before others finished: %v", w, order)
		}
		seen[w] = true
	}
}
