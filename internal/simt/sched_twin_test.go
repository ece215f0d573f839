package simt_test

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/simt"
	"repro/internal/warpsched"
)

// The scheduler twin tests run two SMXs in lockstep, one cycle at a
// time, on the same kernel and the same deterministic gate, and compare
// them after every cycle. One twin charges held gate stalls through
// Hooks.GateHolds; the other has no GateHolds, so every retry calls the
// gate, as the engine did before the hook existed.

// refPickGTO is the greedy-then-oldest pick as a plain min-scan over
// SchedView state: the scheduler's greedy warp if it is still issuable,
// else the issuable warp with the smallest (LastIssued, id).
func refPickGTO(v simt.SchedView, sched int) int {
	if last := v.LastPicked(sched); last >= 0 && last%v.NumSchedulers() == sched && v.Issuable(last) {
		return last
	}
	best := -1
	var bestLast int64
	for w := sched; w < v.NumWarps(); w += v.NumSchedulers() {
		if v.Issuable(w) && (best < 0 || v.LastIssued(w) < bestLast) {
			best, bestLast = w, v.LastIssued(w)
		}
	}
	return best
}

// mix is the splitmix64 finalizer: the twins' shared source of
// deterministic choices.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// twinKernel loops every lane through a gated block and a work block
// with an optional texture load.
type twinKernel struct{ blocks []simt.BlockInfo }

func (k twinKernel) Blocks() []simt.BlockInfo { return k.blocks }
func (k twinKernel) Entry() int               { return 0 }
func (k twinKernel) Step(slot int32, block int, res *simt.StepResult) {
	if block == 0 {
		res.Next = 1
		return
	}
	res.Next = 0
	res.NMem = 1
	res.Mem[0] = simt.MemAccess{Addr: uint64(slot%64) * 128, Bytes: 4, Space: memsys.Tex}
}

// twinGate is one twin's gate. Every decision is a pure function of the
// seed, the warp, the cycle and ver, a version the gate owns. An odd
// ver is a hold: every call stalls and changes nothing, so "ver is
// odd" is a truthful GateHolds. An even ver gives random outcomes and
// side effects on other warps; some calls and some ticks start or end
// a hold.
type twinGate struct {
	t        *testing.T
	seed     uint64
	stallPct uint64
	ver      uint64
	slots    []int32
	// held is set on the twin whose GateHolds reports an odd ver.
	held bool

	stalls, waitingCalls, proceeds   int64
	resumes, parks, addStalls, holds int64
}

func (g *twinGate) hash(warp int, now int64) uint64 {
	return mix(g.seed ^ mix(uint64(warp)<<40^uint64(now)<<8^g.ver))
}

// mapping returns warp w's identity lane -> slot mapping.
func (g *twinGate) mapping(w int) []int32 {
	for l := range g.slots {
		g.slots[l] = int32(w*len(g.slots) + l)
	}
	return g.slots
}

func (g *twinGate) gate(s *simt.SMX, warp int, now int64) simt.GateResult {
	if s.GateWaiting(warp) {
		if g.held && g.ver%2 == 1 {
			g.t.Fatalf("cycle %d: gate called for waiting warp %d while GateHolds reports true", now, warp)
		}
		g.waitingCalls++
	}
	if g.ver%2 == 1 {
		g.stalls++
		return simt.GateStall
	}
	h := g.hash(warp, now)
	if h%100 < 20 {
		o := int(h >> 8 % uint64(s.NumWarps()))
		switch v := s.Warp(o); {
		case v.Done() || v.Parked():
			v.Resume(g.mapping(o), 0) // bumps wakeGen in the middle of a turn
			g.resumes++
		case o != warp && h>>16%2 == 0:
			v.Park()
			g.parks++
		default:
			v.AddStall(now, int(h>>20%6))
			g.addStalls++
		}
	}
	if h>>24%100 < 4 {
		g.ver++ // a hold starts in the middle of a turn
		g.holds++
	}
	switch r := h >> 32 % 100; {
	case r < g.stallPct:
		g.stalls++
		return simt.GateStall
	case r < g.stallPct+4 && s.LiveWarps() > 1:
		return simt.GateExit
	case r < g.stallPct+8:
		s.Warp(warp).SetMapping(g.mapping(warp), 0)
		return simt.GateProceed
	}
	g.proceeds++
	return simt.GateProceed
}

func (g *twinGate) tick(s *simt.SMX, now int64) {
	if err := s.CheckGTOOrder(); err != nil {
		g.t.Fatal(err)
	}
	h := g.hash(-1, now)
	if h%100 < 8 {
		g.ver++ // start or end a hold between cycles
	}
	// Keep the run going: now and then bring back a retired or parked
	// warp between cycles too.
	if v := s.Warp(int(h >> 8 % uint64(s.NumWarps()))); (v.Done() || v.Parked()) && h>>16%100 < 5 {
		v.Resume(g.mapping(v.ID()), 0)
	}
}

// twin is one SMX of a pair, with its own L2 and gate.
type twin struct {
	s  *simt.SMX
	v  simt.SchedView
	l2 *memsys.OrderedL2
	g  *twinGate
}

func newTwin(t *testing.T, cfg simt.Config, k simt.Kernel, g *twinGate, holds bool) *twin {
	t.Helper()
	hooks := simt.Hooks{Gate: g.gate, Tick: g.tick}
	if holds {
		g.held = true
		hooks.GateHolds = func() bool { return g.ver%2 == 1 }
	}
	l2 := memsys.NewOrderedL2(cfg.Mem, 1)
	s, err := simt.NewSMX(0, cfg, k, hooks, l2)
	if err != nil {
		t.Fatal(err)
	}
	s.LaunchAll(0)
	return &twin{s: s, v: s.View(), l2: l2, g: g}
}

// issued returns the warp that made its first issue of the current
// cycle for scheduler sched, or -1.
func (x *twin) issued(sched int) int {
	for w := sched; w < x.v.NumWarps(); w += x.v.NumSchedulers() {
		if x.v.LastIssued(w) == x.v.Cycle() {
			return w
		}
	}
	return -1
}

// twinCounts tallies the cases a twin run exercised.
type twinCounts struct {
	turns, greedy, dual, charged int64
	ties, exhaustedWithStall     int64
}

// runTwins runs the pair for up to cycles cycles, failing at the first
// cycle where they differ, and returns what the run exercised. a is
// the twin under test; b is the reference.
func runTwins(t *testing.T, name string, a, b *twin, cycles int) twinCounts {
	t.Helper()
	var n twinCounts
	nsched := a.v.NumSchedulers()
	prevLast := make([]int, nsched)
	epoch := a.s.Config().EpochLen()
	for c := 0; c < cycles && a.s.LiveWarps() > 0; c++ {
		for sched := range prevLast {
			prevLast[sched] = a.v.LastPicked(sched)
		}
		used := a.s.Stats().IssueSlotsUsed
		for _, x := range []*twin{a, b} {
			if err := x.s.RunEpoch(x.s.Cycle() + 1); err != nil {
				t.Fatal(err)
			}
		}
		cycle := a.s.Cycle()
		first := int64(0)
		for sched := 0; sched < nsched; sched++ {
			wa, wb := a.issued(sched), b.issued(sched)
			if wa != wb {
				t.Fatalf("%s cycle %d scheduler %d: issued warp %d, reference %d", name, cycle, sched, wa, wb)
			}
			n.turns++
			if wa >= 0 {
				first++
				if wa == prevLast[sched] {
					n.greedy++
				}
			}
		}
		sa, sb := a.s.Stats(), b.s.Stats()
		if sa.CtrlStalls != sb.CtrlStalls {
			t.Fatalf("%s cycle %d: %d gate stalls, reference %d", name, cycle, sa.CtrlStalls, sb.CtrlStalls)
		}
		if sa != sb {
			t.Fatalf("%s cycle %d: stats differ:\n%+v\nreference\n%+v", name, cycle, sa, sb)
		}
		if a.g.ver != b.g.ver || b.s.Cycle() != cycle || a.s.LiveWarps() != b.s.LiveWarps() {
			t.Fatalf("%s cycle %d: gate version %d vs %d, cycle %d vs %d, live %d vs %d", name, cycle,
				a.g.ver, b.g.ver, cycle, b.s.Cycle(), a.s.LiveWarps(), b.s.LiveWarps())
		}
		for w := 0; w < a.v.NumWarps(); w++ {
			va, vb := a.s.Warp(w), b.s.Warp(w)
			if a.v.LastIssued(w) != b.v.LastIssued(w) || a.v.Issuable(w) != b.v.Issuable(w) ||
				va.Done() != vb.Done() || va.Parked() != vb.Parked() || va.Block() != vb.Block() ||
				va.ActiveMask() != vb.ActiveMask() || a.s.GateWaiting(w) != b.s.GateWaiting(w) {
				t.Fatalf("%s cycle %d: warp %d differs", name, cycle, w)
			}
		}
		n.dual += sa.IssueSlotsUsed - used - first
		if cycle%epoch == 0 {
			for _, x := range []*twin{a, b} {
				x.l2.DrainPort(0)
				x.s.ResolveEpoch()
			}
		}
	}
	n.charged = a.s.Stats().CtrlStalls - a.g.stalls
	if b.g.stalls != b.s.Stats().CtrlStalls {
		t.Fatalf("%s: the reference charged %d stalls without a gate call", name, b.s.Stats().CtrlStalls-b.g.stalls)
	}
	return n
}

// twinSetup draws one run's shape from seed: 1-24 warps, 1-4
// schedulers, single or dual dispatch, and a stall-heavy gate.
func twinSetup(seed uint64) (simt.Config, simt.Kernel, func(t *testing.T) *twinGate) {
	h := mix(seed)
	cfg := simt.DefaultConfig()
	cfg.NumSMX = 1
	cfg.MaxCycles = 1 << 22
	cfg.MaxWarpsPerSMX = 1 + int(h%24)
	cfg.SchedulersPerSMX = 1 + int(h>>8%4)
	cfg.DispatchPerScheduler = 1 + int(h>>16%2)
	k := twinKernel{blocks: []simt.BlockInfo{
		{Name: "gate", Insts: 1, Gated: true, Reconv: 1},
		{Name: "work", Insts: 1 + int(h>>24%3), MemInsts: int(h >> 32 % 2)},
	}}
	stallPct := 40 + h>>40%55
	gate := func(t *testing.T) *twinGate {
		return &twinGate{t: t, seed: seed, stallPct: stallPct, slots: make([]int32, cfg.WarpSize)}
	}
	return cfg, k, gate
}

// TestGTOLoopMatchesPickLoop runs the builtin greedy-then-oldest loop,
// with GateHolds, against a twin that runs the pick-then-try loop over
// refPickGTO through a SchedFactory, with no GateHolds. Both must issue
// the same warp in every scheduler turn and count the same gate stalls
// every cycle. The mix must reach every case the fused loop has to get
// right.
func TestGTOLoopMatchesPickLoop(t *testing.T) {
	var sum twinCounts
	var waitingCalls, proceeds, resumes, parks, addStalls, holds int64
	for seed := uint64(1); seed <= 48; seed++ {
		cfg, k, newGate := twinSetup(seed)
		ga, gb := newGate(t), newGate(t)
		a := newTwin(t, cfg, k, ga, true)

		var ties, exhausted int64
		turnCycle, turnSched := int64(-1), -1
		var turnStalls int64
		ref := cfg
		ref.SchedFactory = func(v simt.SchedView) simt.SchedProgram {
			return simt.SchedProgram{Pick: func(sched int) int {
				if v.Cycle() != turnCycle || sched != turnSched {
					turnCycle, turnSched, turnStalls = v.Cycle(), sched, gb.stalls
				}
				w := refPickGTO(v, sched)
				if w < 0 && gb.stalls > turnStalls {
					exhausted++
				}
				// Count picks decided by id among never-issued warps.
				if w >= 0 && v.LastIssued(w) == 0 {
					for x := w + v.NumSchedulers(); x < v.NumWarps(); x += v.NumSchedulers() {
						if v.Issuable(x) && v.LastIssued(x) == 0 {
							ties++
							break
						}
					}
				}
				return w
			}}
		}
		b := newTwin(t, ref, k, gb, false)
		n := runTwins(t, "gto", a, b, 3000)
		sum.turns += n.turns
		sum.greedy += n.greedy
		sum.dual += n.dual
		sum.charged += n.charged
		sum.ties += ties
		sum.exhaustedWithStall += exhausted
		waitingCalls += ga.waitingCalls
		proceeds += ga.proceeds
		resumes += ga.resumes
		parks += ga.parks
		addStalls += ga.addStalls
		holds += ga.holds
	}
	t.Logf("%+v; %d non-held calls on waiting warps, %d proceeds without SetMapping, %d mid-turn resumes, %d parks, %d AddStalls, %d holds started mid-turn",
		sum, waitingCalls, proceeds, resumes, parks, addStalls, holds)
	if sum.greedy < 1000 || sum.charged < 10000 || waitingCalls < 1000 || proceeds < 1000 ||
		resumes < 1000 || parks < 500 || addStalls < 500 || holds < 500 ||
		sum.dual < 1000 || sum.ties < 500 || sum.exhaustedWithStall < 1000 {
		t.Fatal("weak mix: some case the fused loop must match occurred too rarely")
	}
}

// TestPickLoopHeldGateTwins runs the registry's LRR and WaSP policies
// with GateHolds against the same policy without it: charging a held
// stall instead of calling the gate must not change a turn.
func TestPickLoopHeldGateTwins(t *testing.T) {
	for _, sched := range []warpsched.Scheduler{warpsched.NewLRR(), warpsched.DefaultWaSP()} {
		t.Run(sched.Name(), func(t *testing.T) {
			var charged, waitingCalls int64
			for seed := uint64(1); seed <= 24; seed++ {
				cfg, k, newGate := twinSetup(seed)
				cfg.SchedFactory = sched.Factory()
				ga := newGate(t)
				a := newTwin(t, cfg, k, ga, true)
				b := newTwin(t, cfg, k, newGate(t), false)
				charged += runTwins(t, sched.Name(), a, b, 3000).charged
				waitingCalls += ga.waitingCalls
			}
			if charged < 5000 || waitingCalls < 500 {
				t.Fatalf("weak mix: %d charged stalls, %d non-held calls on waiting warps", charged, waitingCalls)
			}
		})
	}
}
