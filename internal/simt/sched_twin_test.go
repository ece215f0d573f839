package simt_test

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/simt"
	"repro/internal/warpsched"
)

// The scheduler twin tests run two SMXs in lockstep, one cycle at a
// time, on the same kernel and the same deterministic gate, and compare
// them after every cycle. The twin under test charges held gate stalls
// through Hooks.GateHolds and walks its scheduler's own order. The
// reference has no GateHolds, so every retry calls the gate, as the
// engine did before the hook existed, and its order comes from a loop
// over the scheduler's pick as it was written before the scheduler API
// became an order.

// The ref* picks below are those picks: plain scans over SchedView
// state, with "not yet linked" in place of "issuable". Called again
// after each picked warp is marked linked, a pick yields its whole
// preference order, which refOrder links.

// refOrder links pick's whole preference order for one scheduler.
func refOrder(v simt.SchedView, pick func(sched int, linked []bool) int) func(sched int, link []int32) int32 {
	linked := make([]bool, v.NumWarps())
	return func(sched int, link []int32) int32 {
		clear(linked)
		head, tail := int32(-1), int32(-1)
		for w := pick(sched, linked); w >= 0; w = pick(sched, linked) {
			linked[w] = true
			if tail < 0 {
				head = int32(w)
			} else {
				link[tail] = int32(w)
			}
			tail = int32(w)
		}
		if tail >= 0 {
			link[tail] = -1
		}
		return head
	}
}

// refPickGTO is the greedy-then-oldest pick as a plain min-scan: the
// scheduler's greedy warp, else the warp with the smallest
// (LastIssued, id).
func refPickGTO(v simt.SchedView, sched int, linked []bool) int {
	if last := v.LastPicked(sched); last >= 0 && last%v.NumSchedulers() == sched && !linked[last] {
		return last
	}
	best := -1
	var bestLast int64
	for w := sched; w < v.NumWarps(); w += v.NumSchedulers() {
		if !linked[w] && (best < 0 || v.LastIssued(w) < bestLast) {
			best, bestLast = w, v.LastIssued(w)
		}
	}
	return best
}

// refPickLRR is the loose round-robin scan: rotate through the
// scheduler's warps, starting after the one it issued from last.
func refPickLRR(v simt.SchedView, sched int, linked []bool) int {
	n := v.NumSchedulers()
	count := (v.NumWarps() - sched + n - 1) / n
	if count <= 0 {
		return -1
	}
	start := 0
	if last := v.LastPicked(sched); last >= 0 {
		start = (last-sched)/n + 1
	}
	for k := 0; k < count; k++ {
		w := sched + ((start+k)%count)*n
		if !linked[w] {
			return w
		}
	}
	return -1
}

// refWaSP is WaSP's three-tier pick with its progress counters. It also
// counts which tier supplied each turn's issue.
type refWaSP struct {
	v         simt.SchedView
	runners   int
	distance  int64
	issued    []int64
	runnerMax []int64
	// turnCycle[sched] is the cycle of the scheduler's last counted issue.
	turnCycle []int64
	tiers     [3]int64
}

func newRefWaSP(v simt.SchedView, w warpsched.WaSP) *refWaSP {
	turnCycle := make([]int64, v.NumSchedulers())
	for i := range turnCycle {
		turnCycle[i] = -1
	}
	return &refWaSP{
		v: v, runners: w.Runners, distance: w.Distance,
		issued:    make([]int64, v.NumWarps()),
		runnerMax: make([]int64, v.NumSchedulers()),
		turnCycle: turnCycle,
	}
}

func (st *refWaSP) onIssue(w int) {
	n := st.v.NumSchedulers()
	sched := w % n
	if st.turnCycle[sched] != st.v.Cycle() {
		st.turnCycle[sched] = st.v.Cycle()
		switch {
		case w/n < st.runners:
			st.tiers[0]++
		case st.runnerMax[sched]-st.issued[w] >= st.distance:
			st.tiers[1]++
		default:
			st.tiers[2]++
		}
	}
	st.issued[w]++
	if w/n < st.runners && st.issued[w] > st.runnerMax[sched] {
		st.runnerMax[sched] = st.issued[w]
	}
}

func (st *refWaSP) pick(sched int, linked []bool) int {
	v := st.v
	nwarps, nsched := v.NumWarps(), v.NumSchedulers()
	// Tier 1: runners, oldest-first.
	best := -1
	var bestLast int64
	firstFollower := nwarps
	for k, w := 0, sched; w < nwarps; k, w = k+1, w+nsched {
		if k >= st.runners {
			firstFollower = w
			break
		}
		if linked[w] {
			continue
		}
		if last := v.LastIssued(w); best < 0 || last < bestLast {
			best, bestLast = w, last
		}
	}
	if best >= 0 {
		return best
	}
	// Tier 2: followers safely behind the lead runner, oldest-first.
	lead := st.runnerMax[sched]
	for w := firstFollower; w < nwarps; w += nsched {
		if linked[w] || lead-st.issued[w] < st.distance {
			continue
		}
		if last := v.LastIssued(w); best < 0 || last < bestLast {
			best, bestLast = w, last
		}
	}
	if best >= 0 {
		return best
	}
	// Tier 3: any other follower, oldest-first.
	for w := firstFollower; w < nwarps; w += nsched {
		if linked[w] || lead-st.issued[w] >= st.distance {
			continue
		}
		if last := v.LastIssued(w); best < 0 || last < bestLast {
			best, bestLast = w, last
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
	// stallCycle[sched] is the last cycle a call for one of the
	// scheduler's warps stalled.
	stallCycle []int64

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
		return g.stall(warp, now)
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
		return g.stall(warp, now)
	case r < g.stallPct+4 && s.LiveWarps() > 1:
		return simt.GateExit
	case r < g.stallPct+8:
		s.Warp(warp).SetMapping(g.mapping(warp), 0)
		return simt.GateProceed
	}
	g.proceeds++
	return simt.GateProceed
}

func (g *twinGate) stall(warp int, now int64) simt.GateResult {
	g.stalls++
	g.stallCycle[warp%len(g.stallCycle)] = now
	return simt.GateStall
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
	// wraps counts turns that issued from a lower warp id than the
	// scheduler's previous issue; exhaustedWithStall counts turns that
	// issued nothing although a gate call of the reference stalled.
	wraps, exhaustedWithStall int64
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
			switch {
			case wa < 0:
				if b.g.stallCycle[sched] == cycle {
					n.exhaustedWithStall++
				}
			case wa == prevLast[sched]:
				n.greedy++
			case wa < prevLast[sched]:
				n.wraps++
			}
			if wa >= 0 {
				first++
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
		return &twinGate{t: t, seed: seed, stallPct: stallPct, slots: make([]int32, cfg.WarpSize),
			stallCycle: make([]int64, cfg.SchedulersPerSMX)}
	}
	return cfg, k, gate
}

// TestGTOLoopMatchesPickLoop runs the builtin greedy-then-oldest
// order, with GateHolds, against a twin whose order links refPickGTO's
// picks through a SchedFactory, with no GateHolds. Both must issue the
// same warp in every scheduler turn and count the same gate stalls
// every cycle. The mix must reach every case the loop has to get right.
func TestGTOLoopMatchesPickLoop(t *testing.T) {
	var sum twinCounts
	var ties, waitingCalls, proceeds, resumes, parks, addStalls, holds int64
	for seed := uint64(1); seed <= 48; seed++ {
		cfg, k, newGate := twinSetup(seed)
		ga := newGate(t)
		a := newTwin(t, cfg, k, ga, true)

		ref := cfg
		ref.SchedFactory = func(v simt.SchedView) simt.SchedProgram {
			order := refOrder(v, func(sched int, linked []bool) int { return refPickGTO(v, sched, linked) })
			return simt.SchedProgram{Order: func(sched int, link []int32) int32 {
				head := order(sched, link)
				// Count turns whose first try is decided by id among
				// never-issued warps.
				w := int(head)
				for w >= 0 && !v.Issuable(w) {
					w = int(link[w])
				}
				if w >= 0 && v.LastIssued(w) == 0 {
					for x := w + v.NumSchedulers(); x < v.NumWarps(); x += v.NumSchedulers() {
						if v.Issuable(x) && v.LastIssued(x) == 0 {
							ties++
							break
						}
					}
				}
				return head
			}}
		}
		b := newTwin(t, ref, k, newGate(t), false)
		n := runTwins(t, "gto", a, b, 3000)
		sum.turns += n.turns
		sum.greedy += n.greedy
		sum.dual += n.dual
		sum.charged += n.charged
		sum.exhaustedWithStall += n.exhaustedWithStall
		waitingCalls += ga.waitingCalls
		proceeds += ga.proceeds
		resumes += ga.resumes
		parks += ga.parks
		addStalls += ga.addStalls
		holds += ga.holds
	}
	t.Logf("%+v; %d id ties, %d non-held calls on waiting warps, %d proceeds without SetMapping, %d mid-turn resumes, %d parks, %d AddStalls, %d holds started mid-turn",
		sum, ties, waitingCalls, proceeds, resumes, parks, addStalls, holds)
	if sum.greedy < 1000 || sum.charged < 10000 || waitingCalls < 1000 || proceeds < 1000 ||
		resumes < 1000 || parks < 500 || addStalls < 500 || holds < 500 ||
		sum.dual < 1000 || ties < 500 || sum.exhaustedWithStall < 1000 {
		t.Fatal("weak mix: some case the loop must match occurred too rarely")
	}
}

// checkedOrder wraps factory's Order: it fails the test unless the
// chain holds every warp of the scheduler exactly once, and counts the
// calls for a scheduler that owns no warps in *empty.
func checkedOrder(t *testing.T, factory simt.SchedFactory, empty *int64) simt.SchedFactory {
	return func(v simt.SchedView) simt.SchedProgram {
		prog := factory(v)
		order := prog.Order
		seen := make([]bool, v.NumWarps())
		prog.Order = func(sched int, link []int32) int32 {
			head := order(sched, link)
			if sched >= v.NumWarps() {
				*empty++
			}
			clear(seen)
			count := 0
			for w := head; w >= 0; w = link[w] {
				if int(w)%v.NumSchedulers() != sched || seen[w] || count > v.NumWarps() {
					t.Fatalf("cycle %d: scheduler %d's order links warp %d out of place", v.Cycle(), sched, w)
				}
				seen[w] = true
				count++
			}
			if want := (v.NumWarps() - sched + v.NumSchedulers() - 1) / v.NumSchedulers(); count != want {
				t.Fatalf("cycle %d: scheduler %d's order links %d warps, want %d", v.Cycle(), sched, count, want)
			}
			return head
		}
		return prog
	}
}

// TestPickLoopHeldGateTwins runs the registry's LRR and WaSP orders,
// with GateHolds, against a twin whose order links the scheduler's pick
// (refPickLRR, refWaSP.pick), with no GateHolds. The
// registry order must equal the pick's whole preference order, and
// charging a held stall instead of calling the gate must not change a
// turn. The mix must reach a scheduler with no warps, mid-turn resumes
// and charged stalls; LRR must wrap past its last warp, and a WaSP with
// one runner must issue from each of its three tiers.
func TestPickLoopHeldGateTwins(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched warpsched.Scheduler
	}{
		{"lrr", warpsched.NewLRR()},
		{"wasp", warpsched.DefaultWaSP()},
		{"wasp-r1-d4", warpsched.WaSP{Runners: 1, Distance: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sum twinCounts
			var empty, waitingCalls, resumes int64
			var tiers [3]int64
			for seed := uint64(1); seed <= 24; seed++ {
				cfg, k, newGate := twinSetup(seed)
				ga := newGate(t)
				under := cfg
				under.SchedFactory = checkedOrder(t, tc.sched.Factory(), &empty)
				a := newTwin(t, under, k, ga, true)

				var wasp *refWaSP
				ref := cfg
				ref.SchedFactory = func(v simt.SchedView) simt.SchedProgram {
					switch s := tc.sched.(type) {
					case warpsched.LRR:
						return simt.SchedProgram{Order: refOrder(v, func(sched int, linked []bool) int {
							return refPickLRR(v, sched, linked)
						})}
					case warpsched.WaSP:
						wasp = newRefWaSP(v, s)
						return simt.SchedProgram{Order: refOrder(v, wasp.pick), OnIssue: wasp.onIssue}
					}
					t.Fatalf("no reference pick for %s", tc.name)
					return simt.SchedProgram{}
				}
				b := newTwin(t, ref, k, newGate(t), false)
				n := runTwins(t, tc.name, a, b, 3000)
				sum.charged += n.charged
				sum.wraps += n.wraps
				sum.exhaustedWithStall += n.exhaustedWithStall
				waitingCalls += ga.waitingCalls
				resumes += ga.resumes
				if wasp != nil {
					for i, c := range wasp.tiers {
						tiers[i] += c
					}
				}
			}
			t.Logf("%+v; %d orders for schedulers without warps, %d non-held calls on waiting warps, %d mid-turn resumes, issues by tier %v",
				sum, empty, waitingCalls, resumes, tiers)
			if sum.charged < 5000 || waitingCalls < 500 || resumes < 500 || empty < 10 || sum.exhaustedWithStall < 500 {
				t.Fatal("weak mix: some case the order must match occurred too rarely")
			}
			if _, ok := tc.sched.(warpsched.LRR); ok && sum.wraps < 500 {
				t.Fatalf("weak mix: LRR wrapped past its last warp in %d turns", sum.wraps)
			}
			if tc.name == "wasp-r1-d4" && (tiers[0] < 500 || tiers[1] < 500 || tiers[2] < 500) {
				t.Fatalf("weak mix: issues by tier %v", tiers)
			}
		})
	}
}
