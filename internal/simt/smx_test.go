package simt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/memsys"
	"repro/internal/regfile"
)

// testKernel is a configurable synthetic kernel for engine tests. Each
// slot carries a small scripted state machine.
type testKernel struct {
	blocks []BlockInfo
	entry  int
	// step is the per-slot semantic function.
	step func(slot int32, block int, res *StepResult)
	// vote, if set, makes the kernel a WarpVoter.
	vote func(warp, block int, slots []int32, res []*StepResult)
}

func (k *testKernel) Blocks() []BlockInfo { return k.blocks }
func (k *testKernel) Entry() int          { return k.entry }
func (k *testKernel) Step(slot int32, block int, res *StepResult) {
	k.step(slot, block, res)
}

type votingKernel struct{ *testKernel }

func (k votingKernel) Vote(warp, block int, slots []int32, res []*StepResult) {
	k.vote(warp, block, slots, res)
}

func smallConfig(warps int) Config {
	cfg := DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 22
	return cfg
}

func newTestSMX(t *testing.T, cfg Config, k Kernel, hooks Hooks) *SMX {
	t.Helper()
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	s, err := NewSMX(0, cfg, k, hooks, l2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A straight-line kernel: one block, every lane exits after it.
func TestStraightLineKernel(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{{Name: "body", Insts: 10}},
		step: func(slot int32, block int, res *StepResult) {
			res.Next = BlockExit
		},
	}
	cfg := smallConfig(2)
	s := newTestSMX(t, cfg, k, Hooks{})
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.WarpInstrs != 20 {
		t.Errorf("warp instrs = %d, want 20 (2 warps x 10)", st.WarpInstrs)
	}
	if got := st.SIMDEfficiency(32); got != 1 {
		t.Errorf("efficiency = %v, want 1", got)
	}
	if st.Retired != 64 {
		t.Errorf("retired = %d, want 64", st.Retired)
	}
	if st.Cycles == 0 {
		t.Errorf("no cycles recorded")
	}
}

// A loop kernel where lane l iterates l+1 times: classic loop
// divergence. Total thread-iterations = sum(l+1) = 528 per warp; the
// warp must run 32 iterations of the loop block (the longest lane).
func TestLoopDivergence(t *testing.T) {
	iters := make(map[int32]int)
	k := &testKernel{
		blocks: []BlockInfo{
			{Name: "loop", Insts: 4, Reconv: 1},
			{Name: "tail", Insts: 2},
		},
		step: func(slot int32, block int, res *StepResult) {
			switch block {
			case 0:
				iters[slot]++
				if iters[slot] <= int(slot%32) { // lane l loops l+1 times total
					res.Next = 0
				} else {
					res.Next = 1
				}
			case 1:
				res.Next = BlockExit
			}
		},
	}
	cfg := smallConfig(1)
	s := newTestSMX(t, cfg, k, Hooks{})
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Block 0 executes 32 times (lane 31 needs 32 iterations); its
	// instruction issues = 32 iterations * 4 insts. Active threads
	// shrink by one each iteration: sum over iterations of active =
	// (32+31+...+1) * 4 insts.
	wantInstrs := int64(32*4 + 2)
	if st.WarpInstrs != wantInstrs {
		t.Errorf("warp instrs = %d, want %d", st.WarpInstrs, wantInstrs)
	}
	wantActive := int64((32*33/2)*4 + 32*2)
	if st.ActiveThreadSum != wantActive {
		t.Errorf("active sum = %d, want %d", st.ActiveThreadSum, wantActive)
	}
	eff := st.SIMDEfficiency(32)
	if eff > 0.60 || eff < 0.45 {
		t.Errorf("loop divergence efficiency = %v, want ~0.52", eff)
	}
}

// If-else divergence with reconvergence: lanes split by parity, run
// different blocks, and reconverge with full mask afterwards.
func TestIfElseReconverges(t *testing.T) {
	var joinActive []int
	k := &testKernel{
		blocks: []BlockInfo{
			{Name: "cond", Insts: 2, Reconv: 3},
			{Name: "then", Insts: 5},
			{Name: "else", Insts: 5},
			{Name: "join", Insts: 2},
		},
		step: func(slot int32, block int, res *StepResult) {
			switch block {
			case 0:
				if slot%2 == 0 {
					res.Next = 1
				} else {
					res.Next = 2
				}
			case 1, 2:
				res.Next = 3
			case 3:
				res.Next = BlockExit
			}
		},
	}
	cfg := smallConfig(1)
	s := newTestSMX(t, cfg, k, Hooks{})
	// Record join activity via the histogram after the run.
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = joinActive
	// cond: 2 instrs @32; then: 5 @16; else: 5 @16; join: 2 @32.
	if st.WarpInstrs != 14 {
		t.Errorf("instrs = %d, want 14", st.WarpInstrs)
	}
	if st.ActiveHist[32] != 4 || st.ActiveHist[16] != 10 {
		t.Errorf("hist: @32=%d @16=%d", st.ActiveHist[32], st.ActiveHist[16])
	}
}

// Nested divergence: outer split by parity, inner split by slot/2
// parity; stack must unwind correctly and all 32 lanes retire.
func TestNestedDivergence(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{
			{Name: "outer", Insts: 1, Reconv: 5},
			{Name: "a", Insts: 1, Reconv: 4},
			{Name: "b", Insts: 1},
			{Name: "c", Insts: 1},
			{Name: "ajoin", Insts: 1},
			{Name: "end", Insts: 1},
		},
		step: func(slot int32, block int, res *StepResult) {
			switch block {
			case 0:
				if slot%2 == 0 {
					res.Next = 1
				} else {
					res.Next = 5
				}
			case 1:
				if (slot/2)%2 == 0 {
					res.Next = 2
				} else {
					res.Next = 3
				}
			case 2, 3:
				res.Next = 4
			case 4:
				res.Next = 5
			case 5:
				res.Next = BlockExit
			}
		},
	}
	cfg := smallConfig(1)
	s := newTestSMX(t, cfg, k, Hooks{})
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired != 32 {
		t.Errorf("retired = %d, want 32", st.Retired)
	}
	// end must run once with all 32 lanes (full reconvergence).
	if st.ActiveHist[32] < 2 { // outer + end
		t.Errorf("expected full-mask blocks, hist32 = %d", st.ActiveHist[32])
	}
}

// Memory instructions stall the warp and hit the cache model.
func TestMemoryStalls(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{{Name: "load", Insts: 1, MemInsts: 1}},
		step: func(slot int32, block int, res *StepResult) {
			res.Next = BlockExit
			res.NMem = 1
			res.Mem[0] = MemAccess{Addr: uint64(slot) * 128 * 5, Bytes: 4, Space: memsys.Tex}
		},
	}
	cfg := smallConfig(1)
	s := newTestSMX(t, cfg, k, Hooks{})
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemInstrs != 1 {
		t.Errorf("mem instrs = %d", st.MemInstrs)
	}
	if st.MemTransactions != 32 {
		t.Errorf("transactions = %d, want 32 (fully scattered)", st.MemTransactions)
	}
	if st.Cycles < int64(cfg.Mem.L1HitLat) {
		t.Errorf("cycles %d too low for a memory stall", st.Cycles)
	}
}

// The gate can stall and then exit warps.
func TestGateStallAndExit(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{{Name: "gated", Insts: 1, Gated: true, Tag: TagCtrl}},
		step: func(slot int32, block int, res *StepResult) {
			res.Next = 0 // loop forever; the gate terminates the warp
		},
	}
	calls := 0
	hooks := Hooks{
		Gate: func(s *SMX, warp int, now int64) GateResult {
			calls++
			switch {
			case calls <= 3:
				return GateStall
			case calls <= 6:
				return GateProceed
			default:
				return GateExit
			}
		},
	}
	cfg := smallConfig(1)
	s := newTestSMX(t, cfg, k, hooks)
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.CtrlStalls != 3 {
		t.Errorf("ctrl stalls = %d, want 3", st.CtrlStalls)
	}
	if st.CtrlInstrs != 3 {
		t.Errorf("ctrl instrs = %d, want 3", st.CtrlInstrs)
	}
	if rate := st.CtrlStallRate(); rate != 0.5 {
		t.Errorf("stall rate = %v, want 0.5", rate)
	}
}

// The warp voter can rewrite targets warp-wide.
func TestWarpVote(t *testing.T) {
	base := &testKernel{
		blocks: []BlockInfo{
			{Name: "split", Insts: 1, Reconv: 2},
			{Name: "odd", Insts: 1},
			{Name: "end", Insts: 1},
		},
		step: func(slot int32, block int, res *StepResult) {
			switch block {
			case 0:
				if slot%2 == 0 {
					res.Next = 2
				} else {
					res.Next = 1
				}
			case 1:
				res.Next = 2
			case 2:
				res.Next = BlockExit
			}
		},
	}
	base.vote = func(warp, block int, slots []int32, res []*StepResult) {
		if block != 0 {
			return
		}
		// Override: everyone goes straight to end (suppress divergence).
		for _, r := range res {
			r.Next = 2
		}
	}
	cfg := smallConfig(1)
	s := newTestSMX(t, cfg, votingKernel{base}, Hooks{})
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Without the vote: 1@32 + 1@16 + 1@32 = 3 instrs. With it: 2 instrs @32.
	if st.WarpInstrs != 2 {
		t.Errorf("instrs = %d, want 2 (vote suppressed divergence)", st.WarpInstrs)
	}
	if st.SIMDEfficiency(32) != 1 {
		t.Errorf("efficiency = %v", st.SIMDEfficiency(32))
	}
}

// OnDiverge hook takes over warp formation.
func TestOnDivergeHook(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{
			{Name: "split", Insts: 1, Reconv: 1},
			{Name: "end", Insts: 1},
		},
		step: func(slot int32, block int, res *StepResult) {
			switch block {
			case 0:
				if slot%2 == 0 {
					res.Next = 1
				} else {
					res.Next = 0
				}
			case 1:
				res.Next = BlockExit
			}
		},
	}
	handled := 0
	hooks := Hooks{
		OnDiverge: func(s *SMX, warp, block int, lanes, targets []int) bool {
			handled++
			// Send the whole warp to end with its current slots.
			w := s.Warp(warp)
			slots := make([]int32, len(w.Slots()))
			copy(slots, w.Slots())
			w.SetMapping(slots, 1)
			return true
		},
	}
	cfg := smallConfig(1)
	s := newTestSMX(t, cfg, k, hooks)
	s.LaunchAll(0)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Errorf("OnDiverge called %d times, want 1", handled)
	}
	if st.Retired != 32 {
		t.Errorf("retired = %d", st.Retired)
	}
}

// Deadlocked warps (gate never opens) must be reported, not hang.
func TestDeadlockDetected(t *testing.T) {
	k := &testKernel{
		blocks: []BlockInfo{{Name: "gated", Insts: 1, Gated: true}},
		step:   func(slot int32, block int, res *StepResult) { res.Next = 0 },
	}
	hooks := Hooks{Gate: func(s *SMX, warp int, now int64) GateResult { return GateStall }}
	cfg := smallConfig(1)
	cfg.MaxCycles = 2000
	s := newTestSMX(t, cfg, k, hooks)
	s.LaunchAll(0)
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "cycles") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestNewSMXValidation(t *testing.T) {
	cfg := smallConfig(1)
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	if _, err := NewSMX(0, cfg, nil, Hooks{}, l2); err == nil {
		t.Errorf("nil kernel accepted")
	}
	k := &testKernel{blocks: []BlockInfo{}, step: func(int32, int, *StepResult) {}}
	if _, err := NewSMX(0, cfg, k, Hooks{}, l2); err == nil {
		t.Errorf("empty program accepted")
	}
	bad := cfg
	bad.WarpSize = 0
	k2 := &testKernel{blocks: []BlockInfo{{Insts: 1}}, step: func(int32, int, *StepResult) {}}
	if _, err := NewSMX(0, bad, k2, Hooks{}, l2); err == nil {
		t.Errorf("invalid config accepted")
	}
	bad = cfg
	bad.NumSMX = MaxSMX + 1
	if _, err := NewSMX(0, bad, k2, Hooks{}, l2); err == nil {
		t.Errorf("%d SMXs accepted", bad.NumSMX)
	}
	// Bank counts the register file cannot model are an error, not a
	// panic inside regfile.New.
	for _, banks := range []int{0, regfile.MaxBanks + 1} {
		bad = cfg
		bad.RF.NumBanks = banks
		if _, err := NewSMX(0, bad, k2, Hooks{}, l2); err == nil {
			t.Errorf("%d register file banks accepted", banks)
		}
	}
	if _, err := NewSMX(1, cfg, k2, Hooks{}, l2); err == nil {
		t.Errorf("SMX id beyond the L2's ports accepted")
	}
	if _, err := NewSMX(0, cfg, k2, Hooks{}, nil); err == nil {
		t.Errorf("nil L2 accepted")
	}
}

func TestPartition(t *testing.T) {
	total := 0
	for i := 0; i < 15; i++ {
		s, e := Partition(103, 15, i)
		if e < s {
			t.Fatalf("part %d inverted: [%d,%d)", i, s, e)
		}
		total += e - s
	}
	if total != 103 {
		t.Errorf("partition lost items: %d", total)
	}
	s, e := Partition(5, 0, 0)
	if s != 0 || e != 5 {
		t.Errorf("degenerate partition = [%d,%d)", s, e)
	}
}

func TestStatsAddAndBreakdown(t *testing.T) {
	var a, b Stats
	a.Cycles = 10
	b.Cycles = 20
	a.WarpInstrs = 4
	a.ActiveHist[32] = 2
	a.ActiveHist[8] = 2
	a.ActiveThreadSum = 2*32 + 2*8
	b.WarpInstrs = 1
	b.ActiveHist[16] = 1
	b.ActiveThreadSum = 16
	a.Add(b)
	if a.Cycles != 20 {
		t.Errorf("cycles should take max: %d", a.Cycles)
	}
	if a.WarpInstrs != 5 {
		t.Errorf("instrs = %d", a.WarpInstrs)
	}
	bd := a.UtilizationBreakdown(32)
	if bd.W1to8 != 0.4 || bd.W9to16 != 0.2 || bd.W25to32 != 0.4 {
		t.Errorf("breakdown = %+v", bd)
	}
	if eff := a.SIMDEfficiency(32); eff < 0.59 || eff > 0.61 {
		t.Errorf("efficiency = %v", eff)
	}
}

func TestMraysPerSec(t *testing.T) {
	var s Stats
	s.Cycles = 980_000_000 // one second at 980 MHz
	if got := s.MraysPerSec(200_000_000, 980); got < 199.9 || got > 200.1 {
		t.Errorf("Mrays = %v, want 200", got)
	}
	var empty Stats
	if empty.MraysPerSec(100, 980) != 0 {
		t.Errorf("empty stats should give 0")
	}
}

// GPU run with multiple SMXs merges stats and uses the shared L2.
func TestRunGPU(t *testing.T) {
	cfg := smallConfig(2)
	cfg.NumSMX = 4
	factory := func(id int) (SMXProgram, error) {
		k := &testKernel{
			blocks: []BlockInfo{{Name: "b", Insts: 3, MemInsts: 1}},
			step: func(slot int32, block int, res *StepResult) {
				res.Next = BlockExit
				res.NMem = 1
				res.Mem[0] = MemAccess{Addr: 0x1000, Bytes: 4, Space: memsys.Tex}
			},
		}
		return SMXProgram{Kernel: k}, nil
	}
	res, err := RunGPUCtx(context.Background(), cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSMX) != 4 {
		t.Errorf("per-SMX stats = %d", len(res.PerSMX))
	}
	if res.Stats.WarpInstrs != 4*2*4 {
		t.Errorf("instrs = %d, want 32", res.Stats.WarpInstrs)
	}
	if res.Stats.Retired != 4*2*32 {
		t.Errorf("retired = %d", res.Stats.Retired)
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
