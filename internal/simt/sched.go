package simt

// Pluggable warp scheduling. Config.SchedFactory opens the per-cycle
// pick to external policies (internal/warpsched) without interface
// dispatch on the issue path: NewSMX calls the factory once and stores
// the returned func values directly in the SMX's pickFn and onIssueFn
// fields, exactly like the kernel Step method and the architecture
// hooks. The steady-state cycle loop therefore makes one indirect call
// per pick — the same shape as the builtin GTO scan a nil factory
// binds — and allocates nothing as long as the policy's own funcs do
// not.

// SchedView is the window a warp-scheduler policy gets onto one SMX's
// scheduling state. It is handed to a SchedFactory at NewSMX, after
// the warp store is built and sized; all methods read the live store,
// and none of them allocates. The view stays valid for the SMX's
// lifetime.
type SchedView struct {
	s *SMX
}

// SMXID returns the SMX's index within the device.
func (v SchedView) SMXID() int { return v.s.ID }

// NumWarps returns the number of resident warps. Warp w belongs to
// scheduler w % NumSchedulers; its rank within that scheduler's stride
// is w / NumSchedulers.
func (v SchedView) NumWarps() int { return v.s.st.n }

// NumSchedulers returns the number of warp schedulers per SMX.
func (v SchedView) NumSchedulers() int { return v.s.nsched }

// Cycle returns the current device cycle.
func (v SchedView) Cycle() int64 { return v.s.cycle }

// Issuable reports whether warp w could issue this cycle (live, not
// parked, not stalled on memory or a gate push-back). A policy's Pick
// must only return issuable warps.
func (v SchedView) Issuable(w int) bool { return v.s.issuable(w) }

// LastIssued returns the cycle warp w last issued an instruction
// (0 before its first issue) — the age key of the builtin
// oldest-first orders.
func (v SchedView) LastIssued(w int) int64 { return v.s.st.lastIssued[w] }

// LastPicked returns the warp the scheduler issued from last, or -1.
func (v SchedView) LastPicked(sched int) int { return v.s.lastWarp[sched] }

// PickGTO runs the canonical greedy-then-oldest pick for the
// scheduler: prefer the warp it issued from last, else the issuable
// warp with the oldest LastIssued, lowest id on ties — the first
// issuable warp of the scheduler's age list, which every issue keeps
// in order at O(1) cost. Calls within one cycle resume the walk where
// the previous call stopped, so retries after failed issues cost one
// walk of the list per cycle in all. The answer is still a pure
// function of SchedView state, also when the caller discards it and
// issues another warp. Registry policies that want the builtin
// behavior (or a fallback tier of it) call this instead of
// reimplementing the scan.
func (v SchedView) PickGTO(sched int) int { return v.s.pickGTO(sched) }

// PickLRR runs the canonical loose round-robin scan: rotate through
// the scheduler's warps starting after the one it issued from last.
func (v SchedView) PickLRR(sched int) int { return v.s.pickRR(sched) }

// SchedProgram is one SMX's bound warp-scheduler instance: the func
// values NewSMX devirtualizes into the issue path.
type SchedProgram struct {
	// Pick selects the next warp for scheduler `sched`
	// (0 ≤ sched < NumSchedulers), returning its id or -1 when none of
	// the scheduler's warps is issuable. Determinism contract: the
	// choice must be a pure function of SchedView state (no wall
	// clock, no RNG, no map iteration), with ties broken lowest-id
	// first. Pick should be total — returning -1 while an issuable
	// warp exists is safe (the idle cache only short-circuits cycles
	// where the scan would genuinely find nothing, so the machine
	// re-asks every cycle) but wastes issue slots.
	Pick func(sched int) int
	// OnIssue, when non-nil, is called once per instruction issued
	// from warp w, after the issue is charged. Policies that need
	// progress counters (WaSP's runner/follower distance) maintain
	// them here; it must not allocate in steady state.
	OnIssue func(w int)
}

// SchedFactory builds a policy's per-SMX scheduler instance. NewSMX
// calls it once per SMX, after the warp store is sized, so the factory
// may allocate per-warp state; the returned funcs run on the SMX's
// cycle loop and must not.
type SchedFactory func(v SchedView) SchedProgram
