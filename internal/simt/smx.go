//drslint:hotpath
package simt

import (
	"fmt"
	"math/bits"

	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/regfile"
)

// SMX is one streaming multiprocessor: a set of resident warps driven
// by greedy-then-oldest schedulers, a banked register file, and private
// L1 caches over the shared L2. An SMX is single-goroutine; the GPU
// runs one goroutine per SMX.
//
// Warp state lives in a struct-of-arrays store (warpstate.go): the
// per-cycle scheduler scan, the issue loop and the divergence resolver
// walk flat arrays indexed by warp id instead of dereferencing per-warp
// heap objects. The interface-dispatched calls of the issue path
// (Kernel.Step, WarpVoter.Vote, the architecture hooks, the scheduler
// policy) are resolved once at NewSMX into direct func fields.
type SMX struct {
	ID     int
	cfg    Config
	kernel Kernel
	hooks  Hooks

	st     *warpState
	views  []Warp
	mem    *memsys.SMXMem
	rf     *regfile.File
	blocks []BlockInfo

	cycle int64
	stats Stats

	// greedy scheduler state: last warp issued per scheduler
	lastWarp []int
	// GTO age order: each scheduler's warps as a doubly linked list in
	// ascending (lastIssued, id) order, linked through gtoNext/gtoPrev
	// (-1 ends a chain). gto[sched] holds the list's ends.
	gto     []gtoOrder
	gtoNext []int32
	gtoPrev []int32
	// orderLink is the chain a bound scheduler policy's Order links its
	// warps into, once per non-idle turn (nil under the builtin order).
	orderLink []int32
	// Idle cache: before cycle schedWake[sched] (valid while
	// schedWakeGen[sched] matches the store's wakeGen) none of the
	// scheduler's warps is issuable, so its turn ends at once. Stalls
	// only push wake-ups later and parks only remove candidates; the
	// one event that wakes a warp early — a launch/resume resetting
	// readyCycle — bumps wakeGen.
	schedWake    []int64
	schedWakeGen []uint64
	// held caches gateHoldsFn's answer between two real issue attempts
	// (0: not asked, 1: the gate holds, -1: it does not); step and
	// issueOne clear it.
	held int8

	// Issue path devirtualized at NewSMX: the kernel's Step method
	// value, the optional voter, the architecture hooks, and the
	// scheduler policy are bound once so the per-instruction loop makes
	// direct calls instead of interface dispatches.
	stepFn       func(slot int32, block int, res *StepResult)
	voteFn       func(warp, block int, slots []int32, res []*StepResult)
	gateFn       func(s *SMX, warp int, now int64) GateResult
	gateHoldsFn  func() bool
	tickFn       func(s *SMX, now int64)
	onDivergeFn  func(s *SMX, warp, block int, lanes []int, targets []int) bool
	onBlockEndFn func(s *SMX, warp, block int, lanes []int, targets []int) bool
	onWarpDoneFn func(s *SMX, warp int)
	orderFn      func(sched int, link []int32) int32
	onIssueFn    func(w int)
	nsched       int
	wsz          int

	// Resolve/vote scratch, reused every cycle (the SMX is single-
	// goroutine and only one warp resolves at a time). Pre-sized to the
	// warp width at NewSMX so the steady-state cycle loop never grows
	// them.
	laneBuf   []int
	targetBuf []int
	uniqBuf   []int
	maskBuf   []uint32
	voteSlots []int32
	voteRes   []*StepResult
	launchBuf []int32

	defaultSrcOps int

	// l2 is the shared L2 the SMX's port belongs to; standalone RunFor
	// drains that one port through it.
	l2 *memsys.OrderedL2
}

// gtoOrder is one scheduler's GTO age list. lastIssued is written only
// on a warp's first issue of a cycle, always with the current cycle,
// and a scheduler makes at most one such issue per cycle; so moving the
// issuing warp to the back keeps the list in exact (lastIssued, id)
// order, with never-issued warps at the front in id order.
type gtoOrder struct {
	head, tail int32 // oldest and youngest warp (-1: no warps)
}

// NewSMX builds one SMX running kernel with the given hooks, attached
// to port id of the shared ordered L2. A standalone SMX (driven by Run
// or RunFor rather than RunGPU) can use its own
// memsys.NewOrderedL2(cfg.Mem, 1).
func NewSMX(id int, cfg Config, kernel Kernel, hooks Hooks, l2 *memsys.OrderedL2) (*SMX, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l2 == nil || id < 0 || id >= l2.NumPorts() {
		return nil, fmt.Errorf("simt: SMX %d has no port on the L2", id)
	}
	if kernel == nil {
		return nil, fmt.Errorf("simt: nil kernel")
	}
	blocks := kernel.Blocks()
	if len(blocks) == 0 {
		return nil, fmt.Errorf("simt: kernel has no blocks")
	}
	for i, b := range blocks {
		if b.Insts <= 0 && b.MemInsts <= 0 {
			return nil, fmt.Errorf("simt: block %d (%s) has no instructions", i, b.Name)
		}
	}
	ws := cfg.WarpSize
	s := &SMX{
		ID:            id,
		cfg:           cfg,
		kernel:        kernel,
		hooks:         hooks,
		blocks:        blocks,
		st:            newWarpState(cfg.MaxWarpsPerSMX, ws),
		mem:           memsys.NewSMXMem(cfg.Mem, l2, id),
		l2:            l2,
		rf:            regfile.New(cfg.RF),
		lastWarp:      make([]int, cfg.SchedulersPerSMX),
		schedWake:     make([]int64, cfg.SchedulersPerSMX),
		schedWakeGen:  make([]uint64, cfg.SchedulersPerSMX),
		launchBuf:     make([]int32, ws),
		stepFn:        kernel.Step,
		gateFn:        hooks.Gate,
		gateHoldsFn:   hooks.GateHolds,
		tickFn:        hooks.Tick,
		onDivergeFn:   hooks.OnDiverge,
		onBlockEndFn:  hooks.OnBlockEnd,
		onWarpDoneFn:  hooks.OnWarpDone,
		nsched:        cfg.SchedulersPerSMX,
		wsz:           ws,
		laneBuf:       make([]int, 0, ws),
		targetBuf:     make([]int, 0, ws),
		uniqBuf:       make([]int, 0, ws),
		maskBuf:       make([]uint32, 0, ws),
		voteSlots:     make([]int32, 0, ws),
		voteRes:       make([]*StepResult, 0, ws),
		defaultSrcOps: 2,
	}
	if v, ok := kernel.(WarpVoter); ok {
		s.voteFn = v.Vote
	}
	s.views = make([]Warp, cfg.MaxWarpsPerSMX)
	for i := range s.views {
		s.views[i] = Warp{st: s.st, id: i}
	}
	for i := range s.lastWarp {
		s.lastWarp[i] = -1
	}
	s.gto = make([]gtoOrder, s.nsched)
	for i := range s.gto {
		s.gto[i] = gtoOrder{head: -1, tail: -1}
	}
	s.gtoNext = make([]int32, s.st.n)
	s.gtoPrev = make([]int32, s.st.n)
	for w := 0; w < s.st.n; w++ {
		s.gtoPushBack(w)
	}
	// Bind the warp-scheduler policy: a configured factory's funcs, or
	// none, which leaves the builtin greedy-then-oldest order in charge.
	if cfg.SchedFactory != nil {
		prog := cfg.SchedFactory(SchedView{s: s})
		if prog.Order == nil {
			return nil, fmt.Errorf("simt: scheduler factory returned a nil Order func")
		}
		s.orderFn = prog.Order
		s.onIssueFn = prog.OnIssue
		s.orderLink = make([]int32, s.st.n)
	}
	return s, nil
}

// LaunchAll starts every warp at the kernel entry with the identity
// mapping slotBase + warp*warpSize + lane.
func (s *SMX) LaunchAll(slotBase int32) {
	slots := s.launchBuf
	entry := s.kernel.Entry()
	for w := 0; w < s.st.n; w++ {
		for l := range slots {
			slots[l] = slotBase + int32(w*s.wsz+l)
		}
		s.st.launch(w, entry, slots)
	}
}

// LaunchMapped starts warp w at the entry block with an explicit
// mapping (used by the DRS wiring, where warps map to rows). The live
// counter is maintained incrementally by the phase transition — this
// remap costs O(warpSize), with no O(warps) recount.
//
//drslint:hotpath
func (s *SMX) LaunchMapped(warp int, slots []int32) {
	s.st.launch(warp, s.kernel.Entry(), slots)
}

// Warp returns warp i (architecture hooks use this to re-form warps).
func (s *SMX) Warp(i int) *Warp { return &s.views[i] }

// NumWarps returns the number of resident warps.
func (s *SMX) NumWarps() int { return s.st.n }

// Cycle returns the current cycle.
func (s *SMX) Cycle() int64 { return s.cycle }

// Mem returns the SMX's memory hierarchy view.
func (s *SMX) Mem() *memsys.SMXMem { return s.mem }

// RF returns the SMX's register file model.
func (s *SMX) RF() *regfile.File { return s.rf }

// Stats returns a snapshot of the SMX's counters.
func (s *SMX) Stats() Stats {
	st := s.stats
	st.Cycles = s.cycle
	return st
}

// Config returns the SMX's configuration.
func (s *SMX) Config() Config { return s.cfg }

// MetricsPrefix returns the SMX's path prefix in the unified registry
// ("smx3"). Architecture wrappers append their own segment
// ("smx3/drs").
func (s *SMX) MetricsPrefix() string { return fmt.Sprintf("smx%d", s.ID) }

// RegisterMetrics registers every counter the SMX owns into the
// unified registry under smx<N>/...: the engine's issue/divergence
// counters (smx<N>/warp_instrs, ...), the live cycle and warp gauges,
// the private caches (smx<N>/l1d/..., smx<N>/l1t/...) and the register
// file (smx<N>/rf/...). Probes read the live fields; nothing on the
// per-cycle path changes.
func (s *SMX) RegisterMetrics(reg *metrics.Registry) {
	p := s.MetricsPrefix()
	reg.Counter(p+"/cycles", &s.cycle)
	reg.Gauge(p+"/live_warps", func() int64 { return int64(s.st.live) })
	reg.RegisterStruct(p, &s.stats)
	s.mem.RegisterMetrics(reg, p)
	s.rf.RegisterMetrics(reg, p+"/rf")
}

// RegisterSeries registers the SMX's per-epoch time-series columns:
// occupancy (live warps), cumulative issued warp instructions, and the
// cumulative warp-state census counters the trace exporter turns into
// exec/mem/gate/parked phase slices. The engine samples the columns at
// every epoch barrier, when no SMX goroutine is running.
func (s *SMX) RegisterSeries(se *metrics.Series) {
	p := s.MetricsPrefix()
	se.Column(p+"/live_warps", func() int64 { return int64(s.st.live) })
	se.Column(p+"/warp_instrs", func() int64 { return s.stats.WarpInstrs })
	se.Column(p+"/sampled_exec", func() int64 { return s.stats.SampledExec })
	se.Column(p+"/sampled_mem", func() int64 { return s.stats.SampledMem })
	se.Column(p+"/sampled_gate", func() int64 { return s.stats.SampledGate })
	se.Column(p+"/sampled_parked", func() int64 { return s.stats.SampledParked })
}

// Run executes until all warps are done, returning the final stats. It
// advances one epoch at a time, as RunFor does.
func (s *SMX) Run() (Stats, error) {
	for s.st.live > 0 {
		if err := s.RunFor(s.cfg.EpochLen()); err != nil {
			return s.Stats(), err
		}
	}
	return s.Stats(), nil
}

// RunEpoch advances the SMX to device cycle `end` (or until all its
// warps are done), leaving this epoch's L2-bound requests queued on the
// SMX's port. The epoch-barrier engine calls it from the SMX's worker
// goroutine, then — after the device-wide ordered drain — ResolveEpoch
// from the barrier. The engine guarantees end-start never exceeds
// Config.EpochLen, so no queued request's data could have been needed
// before the barrier.
func (s *SMX) RunEpoch(end int64) error {
	maxCycles := s.cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	for s.st.live > 0 && s.cycle < end {
		s.step()
		if s.cycle > maxCycles {
			return fmt.Errorf("simt: SMX %d exceeded %d cycles (%d warps live; deadlock?)",
				s.ID, maxCycles, s.st.live)
		}
	}
	return nil
}

// ResolveEpoch applies the epoch drain's hit/miss outcomes to warps
// with in-flight memory and clears the SMX's port queue. The engine
// calls it at the barrier, never concurrently with RunEpoch. A warp
// whose access missed the L2 has its ready cycle raised from the
// provisional (L2-hit) estimate to the full DRAM round trip; the
// estimate always reaches past the barrier, so the correction is never
// late.
//
//drslint:hotpath
func (s *SMX) ResolveEpoch() {
	port := s.mem.Port()
	if port.Pending() == 0 {
		return
	}
	st := s.st
	for w := 0; w < st.n; w++ {
		for _, p := range st.pending[w] {
			if !port.AnyMissed(p.first, p.count) {
				continue
			}
			if st.phase[w] == phaseExec {
				// Block still executing: the latency is exposed at block
				// completion via memReady.
				if p.missReady > st.memReady[w] {
					st.memReady[w] = p.missReady
				}
			} else if p.missReady > st.readyCycle[w] {
				// Block completed inside the epoch: completion moved the
				// provisional memReady into readyCycle; raise it there.
				st.readyCycle[w] = p.missReady
			}
		}
		st.pending[w] = st.pending[w][:0]
	}
	port.Reset()
}

// RunFor advances a standalone SMX by at most n cycles, stopping early
// if all warps finish. It runs in chunks of at most Config.EpochLen
// cycles and closes each with the engine's barrier work restricted to
// this SMX: drain its own L2 port, then ResolveEpoch. Because no chunk
// is longer than an epoch, no queued request could have completed
// inside it, so the result is the same for any n (see EpochLen).
func (s *SMX) RunFor(n int64) error {
	epoch := s.cfg.EpochLen()
	for end := s.cycle + n; s.st.live > 0 && s.cycle < end; {
		chunk := end
		if chunk-s.cycle > epoch {
			chunk = s.cycle + epoch
		}
		if err := s.RunEpoch(chunk); err != nil {
			return err
		}
		s.l2.DrainPort(s.ID)
		s.ResolveEpoch()
	}
	return nil
}

// step advances the SMX by one cycle.
//
//drslint:hotpath
func (s *SMX) step() {
	s.cycle++
	s.held = 0
	s.rf.Advance(s.cycle)
	if s.tickFn != nil {
		s.tickFn(s, s.cycle)
	}
	if s.cycle%64 == 0 {
		st := s.st
		for w := 0; w < st.n; w++ {
			switch {
			case st.phase[w] == phaseDone:
				s.stats.SampledDone++
			case st.phase[w] == phaseParked:
				s.stats.SampledParked++
			case st.readyCycle[w] > s.cycle+1:
				s.stats.SampledMem++
			case st.readyCycle[w] == s.cycle+1 && st.phase[w] == phaseEnter:
				s.stats.SampledGate++
			default:
				s.stats.SampledExec++
			}
		}
	}
	for sched := 0; sched < s.nsched; sched++ {
		s.stats.IssueSlotsTotal += int64(s.cfg.DispatchPerScheduler)
		w := s.turn(sched)
		if w < 0 {
			continue
		}
		s.stats.IssueSlotsUsed++
		s.noteIssue(sched, w)
		if s.onIssueFn != nil {
			s.onIssueFn(w)
		}
		for d := 1; d < s.cfg.DispatchPerScheduler; d++ {
			if !s.issueOne(w) {
				break
			}
			s.stats.IssueSlotsUsed++
			if s.onIssueFn != nil {
				s.onIssueFn(w)
			}
		}
	}
}

// turn is one scheduler turn: walk the scheduler's warps in preference
// order, trying each issuable one until one issues. It returns that
// warp, or -1 when none did. The builtin greedy-then-oldest order is
// the warp the scheduler issued from last, then the age list from its
// head. A bound policy's order is the chain its Order links into
// orderLink, once per non-idle turn.
//
// This is the order in which a pick-then-try loop over the same
// preference tries warps. Within one (cycle, wakeGen) a warp whose try
// failed stays non-issuable, and no warp becomes issuable: only launch
// lowers readyCycle or leaves done/parked, and launch bumps wakeGen. No
// warp issues before the turn ends, so the order holds too, and each
// re-pick after a failed try would return the next issuable warp of the
// chain. A try that bumps wakeGen restarts the walk from the chain's
// start; the chain holds every warp of the scheduler, so a warp the try
// resumed is on it. A scheduler that fails more tries than the SMX has
// warps gives up the turn, as the pick loop does.
func (s *SMX) turn(sched int) int {
	if s.idle(sched) {
		return -1
	}
	st := s.st
	fails, stalled := 0, false
	gen := st.wakeGen
	greedy, head, link := s.lastWarp[sched], s.gto[sched].head, s.gtoNext
	if s.orderFn != nil {
		greedy, head, link = -1, s.orderFn(sched, s.orderLink), s.orderLink
	}
	w, next := greedy, head
	for {
		if w < 0 {
			if next < 0 {
				break
			}
			w, next = int(next), link[next]
		}
		if s.issuable(w) {
			// A warp waiting at a gate that still holds (Hooks.GateHolds)
			// is charged what the gate call would cost it, one CtrlStalls
			// and a retry next cycle, with no call: idle warps retry here
			// tens of millions of times a run.
			if st.gateWait[w] && (s.held > 0 || s.held == 0 && s.askGateHolds()) {
				s.stats.CtrlStalls++
				st.readyCycle[w] = s.cycle + 1
				stalled = true
			} else if s.issueOne(w) {
				return w
			} else {
				stalled = stalled || st.gateWait[w]
			}
			if fails++; fails > st.n {
				return -1
			}
			if st.wakeGen != gen {
				gen = st.wakeGen
				w, next = greedy, head
				continue
			}
		}
		w = -1
	}
	// A warp that stalled at a gate this turn is issuable next cycle,
	// so the idle cache could only record cycle+1, which skips nothing.
	if !stalled {
		s.recordWake(sched)
	}
	return -1
}

// idle reports whether the idle cache rules out every warp of the
// scheduler this cycle. Memory- and gate-bound phases leave most cycles
// with no issuable warp; the cache ends those turns without a walk.
func (s *SMX) idle(sched int) bool {
	return s.schedWakeGen[sched] == s.st.wakeGen && s.cycle < s.schedWake[sched]
}

// recordWake caches the scheduler's next possible wake-up after a turn
// found nothing to issue: the minimum readyCycle over its live,
// unparked warps (none of which is issuable now, so all exceed the
// current cycle). With no live warps the cache holds until a launch
// bumps the generation.
func (s *SMX) recordWake(sched int) {
	st := s.st
	wake := int64(1) << 62
	for w := sched; w < st.n; w += s.nsched {
		if p := st.phase[w]; p == phaseDone || p == phaseParked {
			continue
		}
		if st.readyCycle[w] < wake {
			wake = st.readyCycle[w]
		}
	}
	s.schedWake[sched] = wake
	s.schedWakeGen[sched] = st.wakeGen
}

// noteIssue records warp w's first issue of the cycle for scheduler
// sched: its age key, the greedy choice, and its O(1) move to the back
// of the GTO age list, which every policy keeps current.
func (s *SMX) noteIssue(sched, w int) {
	s.st.lastIssued[w] = s.cycle
	s.lastWarp[sched] = w
	g := &s.gto[w%s.nsched]
	if int(g.tail) == w {
		return
	}
	prev, next := s.gtoPrev[w], s.gtoNext[w] // next >= 0: w is not the tail
	if prev >= 0 {
		s.gtoNext[prev] = next
	} else {
		g.head = next
	}
	s.gtoPrev[next] = prev
	s.gtoPushBack(w)
}

// gtoPushBack links warp w at the back of its scheduler's age list.
func (s *SMX) gtoPushBack(w int) {
	g := &s.gto[w%s.nsched]
	s.gtoPrev[w], s.gtoNext[w] = g.tail, -1
	if g.tail >= 0 {
		s.gtoNext[g.tail] = int32(w)
	} else {
		g.head = int32(w)
	}
	g.tail = int32(w)
}

// issuable reports whether a warp could issue this cycle (ignoring
// gate outcomes, which are only known at issue time).
func (s *SMX) issuable(w int) bool {
	p := s.st.phase[w]
	return p != phaseDone && p != phaseParked && s.st.readyCycle[w] <= s.cycle
}

// askGateHolds asks Hooks.GateHolds and keeps the answer in held until
// the next real issue attempt: a charged stall changes nothing the hook
// reads, so the engine asks at most once between two real attempts.
func (s *SMX) askGateHolds() bool {
	s.held = -1
	if s.gateHoldsFn != nil && s.gateHoldsFn() {
		s.held = 1
	}
	return s.held > 0
}

// issueOne attempts to issue one instruction from warp w. Returns false
// if the warp could not issue (gate stall, memory stall, done, parked).
func (s *SMX) issueOne(w int) bool {
	s.held = 0 // the attempt may change what GateHolds reads
	st := s.st
	for {
		p := st.phase[w]
		if p == phaseDone || p == phaseParked || st.readyCycle[w] > s.cycle {
			return false
		}
		switch p {
		case phaseResolve:
			s.resolve(w)
		case phaseEnter:
			if !s.enterBlock(w) {
				return false
			}
		case phaseExec:
			return s.issueInstruction(w)
		}
	}
}

// enterBlock runs the gate and semantics for the warp's current block.
// Returns false on a gate stall or exit.
func (s *SMX) enterBlock(w int) bool {
	st := s.st
	b := &s.blocks[st.block[w]]
	if b.Gated && s.gateFn != nil {
		r := s.gateFn(s, w, s.cycle)
		st.gateWait[w] = r == GateStall
		switch r {
		case GateStall:
			s.stats.CtrlStalls++
			// Push the warp's next attempt to the following cycle so a
			// greedy scheduler does not spin on it within this cycle.
			st.readyCycle[w] = s.cycle + 1
			return false
		case GateExit:
			s.retireWarp(w)
			return false
		}
		// The gate may have remapped the warp (SetMapping resets phase
		// to enter); re-read the block.
		b = &s.blocks[st.block[w]]
	}
	mask := st.topMask(w)
	if mask == 0 {
		s.retireWarp(w)
		return false
	}
	st.activeMask[w] = mask
	base := st.laneBase(w)
	block := int(st.block[w])
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		slot := st.slots[base+l]
		if slot < 0 {
			// Lane is in the mask but has no context: treat as exited.
			st.res[base+l] = StepResult{Next: BlockExit}
			continue
		}
		st.res[base+l].NMem = 0
		s.stepFn(slot, block, &st.res[base+l])
	}
	if s.voteFn != nil {
		// Reuse the SMX's vote scratch: this runs at every block entry,
		// and a fresh pair of slices per entry is pure GC pressure.
		slots := s.voteSlots[:0]
		results := s.voteRes[:0]
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			slots = append(slots, st.slots[base+l])
			results = append(results, &st.res[base+l])
		}
		s.voteSlots = slots
		s.voteRes = results
		s.voteFn(w, block, slots, results)
	}
	st.insRem[w] = int32(b.Insts)
	st.memRem[w] = int32(b.MemInsts)
	st.memIdx[w] = 0
	st.setPhase(w, phaseExec)
	return true
}

// issueInstruction issues one instruction of the current block.
func (s *SMX) issueInstruction(w int) bool {
	st := s.st
	b := &s.blocks[st.block[w]]
	active := bits.OnesCount32(st.activeMask[w])
	srcOps := b.SrcOps
	if srcOps <= 0 {
		srcOps = s.defaultSrcOps
	}
	s.stats.WarpInstrs++
	s.stats.ActiveThreadSum += int64(active)
	if active >= 0 && active < len(s.stats.ActiveHist) {
		s.stats.ActiveHist[active]++
	}
	switch b.Tag {
	case TagSI:
		s.stats.SIInstrs++
		s.stats.SIActiveSum += int64(active)
	case TagCtrl:
		s.stats.CtrlInstrs++
	}
	// Register file operand collection; conflicts stall the next issue.
	conflicts := s.rf.CollectOperands(s.cycle, w, int(st.block[w])*4, srcOps)
	if conflicts > 0 {
		if target := s.cycle + int64(conflicts); target > st.readyCycle[w] {
			st.readyCycle[w] = target
		}
	}

	// Memory instructions issue first so their latency overlaps the
	// block's ALU instructions (compilers hoist loads; the scoreboard
	// stalls only at the use).
	if st.memRem[w] > 0 {
		s.issueMem(w)
		st.memRem[w]--
	} else if st.insRem[w] > 0 {
		st.insRem[w]--
	}
	if st.insRem[w] == 0 && st.memRem[w] == 0 {
		st.setPhase(w, phaseResolve)
		// Block completion consumes the loaded data: expose whatever
		// latency the ALU work did not cover.
		if st.memReady[w] > st.readyCycle[w] {
			st.readyCycle[w] = st.memReady[w]
		}
		st.memReady[w] = 0
	}
	return true
}

// issueMem performs the coalesced memory access for memory instruction
// slot memIdx of the warp's current block.
func (s *SMX) issueMem(w int) {
	st := s.st
	idx := int(st.memIdx[w])
	st.memIdx[w]++
	var addrs [32]uint64
	n := 0
	var space memsys.Space
	var maxBytes uint32
	base := st.laneBase(w)
	for m := st.activeMask[w]; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		r := &st.res[base+l]
		if idx >= r.NMem {
			continue
		}
		mm := r.Mem[idx]
		addrs[n] = mm.Addr
		n++
		space = mm.Space
		if mm.Bytes > maxBytes {
			maxBytes = mm.Bytes
		}
	}
	s.stats.MemInstrs++
	if n == 0 {
		return
	}
	res := s.mem.WarpAccessEx(space, addrs[:n], maxBytes)
	s.stats.MemTransactions += int64(res.Transactions)
	if ready := s.cycle + int64(res.Latency); ready > st.memReady[w] {
		st.memReady[w] = ready
	}
	if res.PendingCount > 0 {
		st.pending[w] = append(st.pending[w], memPending{
			first:     res.PendingFirst,
			count:     res.PendingCount,
			missReady: s.cycle + int64(res.MissLatency),
		})
	}
}

// resolve applies the divergence outcome of the finished block.
func (s *SMX) resolve(w int) {
	st := s.st
	mask := st.activeMask[w]
	base := st.laneBase(w)
	// Retire exiting lanes first.
	var exitMask uint32
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if st.res[base+l].Next == BlockExit {
			exitMask |= 1 << uint(l)
		}
	}
	if exitMask != 0 {
		s.stats.Retired += int64(st.retireLanes(w, exitMask))
		mask &^= exitMask
	}
	if st.stackLen[w] == 0 {
		s.retireWarp(w)
		return
	}
	if mask == 0 {
		// All of this block's lanes exited; resume whatever remains on
		// the stack.
		st.popReconverged(w)
		if st.stackLen[w] == 0 {
			s.retireWarp(w)
			return
		}
		st.block[w] = st.top(w).pc
		st.setPhase(w, phaseEnter)
		return
	}
	// Gather distinct targets among surviving lanes into the SMX's
	// reusable scratch: uniq holds each target once (first-seen order),
	// masks the lanes headed there. This runs once per completed block
	// per warp, so it must not allocate; the distinct-target count is
	// bounded by the warp size, making the linear dup-scan cheap.
	lanes := s.laneBuf[:0]
	targets := s.targetBuf[:0]
	uniq := s.uniqBuf[:0]
	masks := s.maskBuf[:0]
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		t := st.res[base+l].Next
		found := -1
		for i, u := range uniq {
			if u == t {
				found = i
				break
			}
		}
		if found < 0 {
			uniq = append(uniq, t)
			masks = append(masks, 1<<uint(l))
		} else {
			masks[found] |= 1 << uint(l)
		}
		lanes = append(lanes, l)
		targets = append(targets, t)
	}
	s.laneBuf = lanes
	s.targetBuf = targets
	s.uniqBuf = uniq
	s.maskBuf = masks

	if s.onBlockEndFn != nil {
		if s.onBlockEndFn(s, w, int(st.block[w]), lanes, targets) {
			// The hook re-formed the warp; phase transitions maintained
			// the live counter incrementally.
			return
		}
	}
	if len(uniq) > 1 && s.onDivergeFn != nil {
		if s.onDivergeFn(s, w, int(st.block[w]), lanes, targets) {
			return
		}
	}

	top := st.top(w)
	if len(uniq) == 1 {
		top.pc = int32(uniq[0])
		st.popReconverged(w)
		if st.stackLen[w] == 0 {
			s.retireWarp(w)
			return
		}
		st.block[w] = st.top(w).pc
		st.setPhase(w, phaseEnter)
		return
	}

	// Divergence: park the parent at the reconvergence block and push
	// one entry per non-reconverging target. Deterministic push order:
	// descending block id so loops (backward targets) run first.
	// Insertion sort over the (target, mask) pairs: the set is tiny and
	// sort.Sort's interface boxing would allocate on this path.
	reconv := s.blocks[st.block[w]].Reconv
	top.pc = int32(reconv)
	for i := 1; i < len(uniq); i++ {
		t, m := uniq[i], masks[i]
		j := i - 1
		for j >= 0 && uniq[j] < t {
			uniq[j+1], masks[j+1] = uniq[j], masks[j]
			j--
		}
		uniq[j+1], masks[j+1] = t, m
	}
	for i, t := range uniq {
		if t == reconv {
			continue // those lanes wait at the reconvergence point
		}
		st.push(w, stackEntry{reconv: int32(reconv), pc: int32(t), mask: masks[i]})
	}
	if int(st.stackLen[w]) > 4*s.wsz {
		panic(fmt.Sprintf("simt: runaway reconvergence stack (depth %d) at block %s",
			st.stackLen[w], s.blocks[st.block[w]].Name))
	}
	st.popReconverged(w)
	st.block[w] = st.top(w).pc
	st.setPhase(w, phaseEnter)
}

// retireWarp marks a warp done and fires the hook.
func (s *SMX) retireWarp(w int) {
	if s.st.phase[w] == phaseDone {
		return
	}
	s.st.setPhase(w, phaseDone)
	s.st.stackLen[w] = 0
	if s.onWarpDoneFn != nil {
		s.onWarpDoneFn(s, w)
	}
}

// RecountLive recomputes the live-warp counter from scratch. The
// counter is maintained incrementally by every phase transition, so
// this is a verification aid, not a requirement after hooks launch or
// resume warps; it remains for API compatibility and asserts in tests.
func (s *SMX) RecountLive() {
	live := 0
	for _, p := range s.st.phase {
		if p != phaseDone {
			live++
		}
	}
	s.st.live = live
}

// LiveWarps returns the number of warps that are not done (running or
// parked).
func (s *SMX) LiveWarps() int { return s.st.live }

// InjectInstrs records `count` extra warp instructions with `active`
// active threads each, tagged `tag`, and charges the warp the issue
// time plus `extraStall` cycles. Architecture hooks use this for
// instruction overheads the kernel's block table does not contain
// (DMK's micro-kernel spawn data dumping/loading).
//
//drslint:hotpath
func (s *SMX) InjectInstrs(warp *Warp, count, active int, tag Tag, extraStall int) {
	if count <= 0 {
		return
	}
	s.stats.WarpInstrs += int64(count)
	s.stats.ActiveThreadSum += int64(count * active)
	if active >= 0 && active < len(s.stats.ActiveHist) {
		s.stats.ActiveHist[active] += int64(count)
	}
	if tag == TagSI {
		s.stats.SIInstrs += int64(count)
		s.stats.SIActiveSum += int64(count * active)
	}
	issueCycles := (count + s.cfg.DispatchPerScheduler - 1) / s.cfg.DispatchPerScheduler
	warp.AddStall(s.cycle, issueCycles+extraStall)
}

// AddBarrierStall records warp-cycles spent parked at a compaction
// barrier (TBC).
//
//drslint:hotpath
func (s *SMX) AddBarrierStall(cycles int64) {
	if cycles > 0 {
		s.stats.BarrierStallCycles += cycles
	}
}

// AddSpawnConflict records cycles lost to spawn-memory contention
// (DMK).
//
//drslint:hotpath
func (s *SMX) AddSpawnConflict(cycles int64) {
	if cycles > 0 {
		s.stats.SpawnConflictCycles += cycles
	}
}
