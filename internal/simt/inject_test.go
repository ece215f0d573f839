package simt

import (
	"testing"

	"repro/internal/memsys"
)

func TestInjectInstrs(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{{Name: "b", Insts: 1}},
		step:   func(slot int32, block int, res *StepResult) { res.Next = BlockExit },
	}
	cfg := smallConfig(1)
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	s, err := NewSMX(0, cfg, k, Hooks{}, l2)
	if err != nil {
		t.Fatal(err)
	}
	s.LaunchAll(0)
	w := s.Warp(0)
	s.InjectInstrs(w, 17, 12, TagSI, 5)
	st := s.Stats()
	if st.WarpInstrs != 17 || st.SIInstrs != 17 {
		t.Errorf("instr counters: %d/%d", st.WarpInstrs, st.SIInstrs)
	}
	if st.ActiveThreadSum != 17*12 || st.SIActiveSum != 17*12 {
		t.Errorf("active sums: %d/%d", st.ActiveThreadSum, st.SIActiveSum)
	}
	if st.ActiveHist[12] != 17 {
		t.Errorf("hist[12] = %d", st.ActiveHist[12])
	}
	// 17 instructions at 2 dispatch/cycle = 9 issue cycles + 5 extra.
	if rc := w.st.readyCycle[w.id]; rc < 14 {
		t.Errorf("warp not stalled: readyCycle = %d", rc)
	}
	// Zero and negative counts are no-ops.
	before := s.Stats().WarpInstrs
	s.InjectInstrs(w, 0, 10, TagNormal, 0)
	s.InjectInstrs(w, -3, 10, TagNormal, 0)
	if s.Stats().WarpInstrs != before {
		t.Errorf("no-op inject changed counters")
	}
}

func TestBarrierAndSpawnCounters(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{{Name: "b", Insts: 1}},
		step:   func(slot int32, block int, res *StepResult) { res.Next = BlockExit },
	}
	cfg := smallConfig(1)
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	s, err := NewSMX(0, cfg, k, Hooks{}, l2)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBarrierStall(42)
	s.AddBarrierStall(-5) // ignored
	s.AddSpawnConflict(7)
	s.AddSpawnConflict(0) // ignored
	st := s.Stats()
	if st.BarrierStallCycles != 42 {
		t.Errorf("barrier cycles = %d", st.BarrierStallCycles)
	}
	if st.SpawnConflictCycles != 7 {
		t.Errorf("spawn cycles = %d", st.SpawnConflictCycles)
	}
}

func TestUtilizationBreakdownSI(t *testing.T) {
	var st Stats
	st.WarpInstrs = 10
	st.SIInstrs = 4
	st.ActiveHist[32] = 10
	bd := st.UtilizationBreakdown(32)
	if bd.SI != 0.4 {
		t.Errorf("SI share = %v", bd.SI)
	}
	var empty Stats
	if b := empty.UtilizationBreakdown(32); b.SI != 0 || b.W25to32 != 0 {
		t.Errorf("empty breakdown nonzero")
	}
}

func TestWarpAccessors(t *testing.T) {
	w := newWarp(3, 32)
	if w.ID() != 3 {
		t.Errorf("ID = %d", w.ID())
	}
	if !w.Done() {
		t.Errorf("fresh warp should be done until launched")
	}
	slots := make([]int32, 32)
	for i := range slots {
		slots[i] = int32(i)
	}
	w.Launch(0, slots)
	if w.Done() || w.Parked() {
		t.Errorf("launched warp in wrong phase")
	}
	if w.ActiveMask() != ^uint32(0) {
		t.Errorf("mask = %x", w.ActiveMask())
	}
	if w.StackDepth() != 1 {
		t.Errorf("stack depth = %d", w.StackDepth())
	}
	w.Park()
	if !w.Parked() {
		t.Errorf("park failed")
	}
	empty := make([]int32, 32)
	for i := range empty {
		empty[i] = -1
	}
	w.Resume(empty, 0)
	if !w.Done() {
		t.Errorf("empty resume should finish the warp")
	}
	// Launch with a partial mapping masks the empty lanes.
	slots[5] = -1
	w.Launch(0, slots)
	if w.ActiveMask()&(1<<5) != 0 {
		t.Errorf("lane 5 should be masked")
	}
}

func TestResumePanicsOnRunningWarp(t *testing.T) {
	w := newWarp(0, 32)
	slots := make([]int32, 32)
	w.Launch(0, slots)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	w.Resume(slots, 0)
}

func TestRetireLanes(t *testing.T) {
	w := newWarp(0, 32)
	slots := make([]int32, 32)
	for i := range slots {
		slots[i] = int32(i)
	}
	w.Launch(0, slots)
	n := w.retireLanes(0b1111)
	if n != 4 {
		t.Errorf("retired %d", n)
	}
	if w.ActiveMask()&0b1111 != 0 {
		t.Errorf("lanes not removed from mask")
	}
	for l := 0; l < 4; l++ {
		if w.Slots()[l] != -1 {
			t.Errorf("slot %d not cleared", l)
		}
	}
	if w.retireLanes(0) != 0 {
		t.Errorf("empty retire should be 0")
	}
}
