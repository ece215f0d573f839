package warpsched_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/memsys"
	"repro/internal/simt"
	"repro/internal/warpsched"
)

// divergeKernel is a small looping kernel with four-way divergence and
// one texture load per arm — enough structure that scheduling order
// matters, while every policy must complete the same work. Lanes exit
// after a slot-dependent number of iterations.
type divergeKernel struct{}

func (divergeKernel) Blocks() []simt.BlockInfo {
	return []simt.BlockInfo{
		{Name: "head", Insts: 2, Reconv: 5},
		{Name: "a", Insts: 1, MemInsts: 1},
		{Name: "b", Insts: 2, MemInsts: 1},
		{Name: "c", Insts: 3, MemInsts: 1},
		{Name: "d", Insts: 1, MemInsts: 1},
		{Name: "join", Insts: 1},
	}
}

func (divergeKernel) Entry() int { return 0 }

type divergeState struct {
	iters []int
}

func (k *divergeState) Blocks() []simt.BlockInfo { return divergeKernel{}.Blocks() }
func (k *divergeState) Entry() int               { return 0 }

func (k *divergeState) Step(slot int32, block int, res *simt.StepResult) {
	switch block {
	case 0:
		res.Next = 1 + int(slot)%4
	case 1, 2, 3, 4:
		res.Next = 5
		res.NMem = 1
		res.Mem[0] = simt.MemAccess{Addr: uint64(slot) * 64, Bytes: 4, Space: memsys.Tex}
	case 5:
		k.iters[slot]++
		if k.iters[slot] >= 3+int(slot)%5 {
			res.Next = simt.BlockExit
		} else {
			res.Next = 0
		}
	}
}

func testConfig(warps int) simt.Config {
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxWarpsPerSMX = warps
	cfg.MaxCycles = 1 << 22
	return cfg
}

// runSMX runs the diverge kernel to completion on one SMX under cfg.
func runSMX(t *testing.T, cfg simt.Config) simt.Stats {
	t.Helper()
	k := &divergeState{iters: make([]int, cfg.MaxWarpsPerSMX*cfg.WarpSize)}
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

func TestCatalog(t *testing.T) {
	reg := warpsched.Builtin()
	want := []string{"gto", "lrr", "wasp"}
	if got := reg.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("catalog names = %v, want %v", got, want)
	}
	for _, name := range want {
		r, ok := reg.Lookup(name)
		if !ok || r.Summary == "" {
			t.Errorf("%s: missing registration or empty summary", name)
		}
		s, err := reg.New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%s).Name() = %s", name, s.Name())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s default config rejected: %v", name, err)
		}
		if s.Factory() == nil {
			t.Errorf("%s: nil factory", name)
		}
	}
}

func TestUnknownScheduler(t *testing.T) {
	_, err := warpsched.Builtin().New("fifo")
	var ue *warpsched.UnknownSchedulerError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnknownSchedulerError, got %v", err)
	}
	if ue.Name != "fifo" || len(ue.Known) != 3 {
		t.Errorf("error carries name=%q known=%v", ue.Name, ue.Known)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := warpsched.NewRegistry()
	if err := r.Register(warpsched.Registration{Name: "", New: func() warpsched.Scheduler { return warpsched.NewGTO() }}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(warpsched.Registration{Name: "x"}); err == nil {
		t.Error("nil factory accepted")
	}
	ok := warpsched.Registration{Name: "x", New: func() warpsched.Scheduler { return warpsched.NewGTO() }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate accepted")
	}
}

// The registry GTO policy must be byte-identical to the device default
// (a nil SchedFactory binds the same builtin scan): same scan,
// devirtualized the same way, so every counter of a completed run
// matches exactly.
func TestFactoryMatchesEnum(t *testing.T) {
	t.Run("gto", func(t *testing.T) {
		viaDefault := runSMX(t, testConfig(6))

		sched, err := warpsched.Builtin().New("gto")
		if err != nil {
			t.Fatal(err)
		}
		viaReg := testConfig(6)
		viaReg.SchedFactory = sched.Factory()
		if got := runSMX(t, viaReg); got != viaDefault {
			t.Errorf("registry gto diverged from the default: %+v vs %+v", got, viaDefault)
		}
	})
}

// WaSP must be deterministic (two runs identical) and complete the
// same work as GTO: scheduling changes timing, never retirement or
// instruction counts.
func TestWaSPDeterministicSameWork(t *testing.T) {
	sched, err := warpsched.Builtin().New("wasp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(8)
	cfg.SchedFactory = sched.Factory()
	a := runSMX(t, cfg)
	b := runSMX(t, cfg)
	if a != b {
		t.Errorf("wasp nondeterministic: %+v vs %+v", a, b)
	}

	gto := runSMX(t, testConfig(8))
	if a.Retired != gto.Retired {
		t.Errorf("retired differ from gto: %d vs %d", a.Retired, gto.Retired)
	}
	if a.WarpInstrs != gto.WarpInstrs {
		t.Errorf("instructions differ from gto: %d vs %d", a.WarpInstrs, gto.WarpInstrs)
	}
	if a.Cycles == 0 {
		t.Error("cycles not recorded")
	}
}

// The WaSP tier contract: a follower warp is only ever picked when
// none of the scheduler's runners is issuable (tiers 2/3 run strictly
// after tier 1 comes up empty). Asserted by wrapping the bound Pick
// with a checker that re-inspects runner issuability on every
// follower pick.
func TestWaSPRunnersFirst(t *testing.T) {
	w := warpsched.DefaultWaSP()
	inner := w.Factory()
	cfg := testConfig(8)
	cfg.SchedulersPerSMX = 2
	followerPicks := 0
	cfg.SchedFactory = func(v simt.SchedView) simt.SchedProgram {
		prog := inner(v)
		pick := prog.Pick
		prog.Pick = func(sched int) int {
			got := pick(sched)
			if got >= 0 && got/v.NumSchedulers() >= w.Runners {
				followerPicks++
				for k, r := 0, sched; k < w.Runners && r < v.NumWarps(); k, r = k+1, r+v.NumSchedulers() {
					if v.Issuable(r) {
						t.Fatalf("follower %d picked for scheduler %d while runner %d issuable", got, sched, r)
					}
				}
			}
			return got
		}
		return prog
	}
	runSMX(t, cfg)
	if followerPicks == 0 {
		t.Error("no follower ever picked; tier contract vacuously true")
	}
}

func TestWaSPValidate(t *testing.T) {
	for _, bad := range []warpsched.WaSP{
		{Runners: 0, Distance: 64},
		{Runners: -1, Distance: 64},
		{Runners: 300, Distance: 64},
		{Runners: 2, Distance: 0},
		{Runners: 2, Distance: -5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if err := warpsched.DefaultWaSP().Validate(); err != nil {
		t.Errorf("default rejected: %v", err)
	}
}

// steadyKernel loops forever: the zero-alloc measurement needs live
// warps throughout.
type steadyKernel struct{}

func (steadyKernel) Blocks() []simt.BlockInfo {
	return []simt.BlockInfo{
		{Name: "head", Insts: 1, Reconv: 5},
		{Name: "a", Insts: 1, MemInsts: 1},
		{Name: "b", Insts: 1, MemInsts: 1},
		{Name: "c", Insts: 1, MemInsts: 1},
		{Name: "d", Insts: 1, MemInsts: 1},
		{Name: "join", Insts: 1},
	}
}

func (steadyKernel) Entry() int { return 0 }

func (steadyKernel) Step(slot int32, block int, res *simt.StepResult) {
	switch block {
	case 0:
		res.Next = 1 + int(slot)%4
	case 1, 2, 3, 4:
		res.Next = 5
		res.NMem = 1
		res.Mem[0] = simt.MemAccess{Addr: uint64(slot) * 64, Bytes: 4, Space: memsys.Tex}
	case 5:
		res.Next = 0
	}
}

// TestWarpSchedZeroAlloc is TestSteadyCycleLoopZeroAlloc for the
// registry schedulers: once warm, a 64-cycle epoch under LRR or WaSP
// performs zero heap allocations — the per-SMX policy state (WaSP's
// counters) is allocated by the factory at NewSMX, and the bound
// Pick/OnIssue funcs never allocate.
func TestWarpSchedZeroAlloc(t *testing.T) {
	for _, name := range []string{"lrr", "wasp"} {
		t.Run(name, func(t *testing.T) {
			sched, err := warpsched.Builtin().New(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(8)
			cfg.SchedFactory = sched.Factory()
			ordered := memsys.NewOrderedL2(cfg.Mem, 1)
			s, err := simt.NewSMX(0, cfg, steadyKernel{}, simt.Hooks{}, ordered)
			if err != nil {
				t.Fatal(err)
			}
			s.LaunchAll(0)
			epoch := func() {
				if err := s.RunEpoch(s.Cycle() + 64); err != nil {
					t.Fatal(err)
				}
				ordered.Drain()
				s.ResolveEpoch()
			}
			for i := 0; i < 50; i++ {
				epoch()
			}
			if s.LiveWarps() == 0 {
				t.Fatal("kernel retired during warm-up")
			}
			if avg := testing.AllocsPerRun(20, epoch); avg != 0 {
				t.Errorf("%s steady-state epoch allocates: %.1f allocs (want 0)", name, avg)
			}
		})
	}
}
