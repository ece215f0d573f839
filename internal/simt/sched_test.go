package simt

import (
	"testing"

	"repro/internal/memsys"
)

// lrrFactory binds the builtin loose round-robin scan through the
// factory path, as the warpsched registry's "lrr" does.
func lrrFactory(v SchedView) SchedProgram { return SchedProgram{Pick: v.PickLRR} }

// Both policies must complete the same kernel with identical retirement
// counts and identical total issued instructions (scheduling changes
// timing, not work).
func TestSchedulersDoSameWork(t *testing.T) {
	run := func(factory SchedFactory) Stats {
		iters := make(map[int32]int)
		k := &testKernel{
			blocks: []BlockInfo{
				{Name: "loop", Insts: 6, Reconv: 1},
				{Name: "tail", Insts: 2},
			},
			step: func(slot int32, block int, res *StepResult) {
				switch block {
				case 0:
					iters[slot]++
					if iters[slot] <= int(slot%7) {
						res.Next = 0
					} else {
						res.Next = 1
					}
				case 1:
					res.Next = BlockExit
				}
			},
		}
		cfg := smallConfig(6)
		cfg.SchedFactory = factory
		s := newTestSMX(t, cfg, k, Hooks{})
		s.LaunchAll(0)
		st, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	gto := run(nil)
	rr := run(lrrFactory)
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

// Round-robin must rotate across warps instead of draining one.
func TestRRRotates(t *testing.T) {
	order := make([]int32, 0, 64)
	k := &testKernel{
		blocks: []BlockInfo{{Name: "b", Insts: 1, Reconv: 0}},
		step: func(slot int32, block int, res *StepResult) {
			if slot%32 == 0 { // one recorder lane per warp
				order = append(order, slot/32)
			}
			res.Next = BlockExit
		},
	}
	cfg := smallConfig(4)
	cfg.SchedFactory = lrrFactory
	cfg.SchedulersPerSMX = 1
	cfg.DispatchPerScheduler = 1
	s := newTestSMX(t, cfg, k, Hooks{})
	s.LaunchAll(0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
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

func TestRunFor(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{{Name: "spin", Insts: 4, Reconv: 0}},
		step: func(slot int32, block int, res *StepResult) {
			res.Next = 0 // spin forever
		},
	}
	cfg := smallConfig(1)
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	s, err := NewSMX(0, cfg, k, Hooks{}, l2)
	if err != nil {
		t.Fatal(err)
	}
	s.LaunchAll(0)
	if err := s.RunFor(100); err != nil {
		t.Fatal(err)
	}
	if c := s.Cycle(); c < 100 || c > 110 {
		t.Errorf("RunFor(100) advanced to cycle %d", c)
	}
	before := s.Cycle()
	if err := s.RunFor(50); err != nil {
		t.Fatal(err)
	}
	if s.Cycle() < before+50 {
		t.Errorf("second RunFor did not advance")
	}
}
