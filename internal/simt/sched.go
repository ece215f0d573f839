package simt

// Pluggable warp scheduling. Config.SchedFactory opens the scheduler's
// preference order to external policies (internal/warpsched) without
// interface dispatch on the issue path: NewSMX calls the factory once
// and stores the returned func values directly in the SMX's orderFn and
// onIssueFn fields, exactly like the kernel Step method and the
// architecture hooks. Once per non-idle scheduler turn, Order links the
// scheduler's warps into a chain the SMX owns, and the engine's one
// turn loop walks it, so a turn makes one indirect call however many
// warps it tries, and allocates nothing as long as the policy's own
// funcs do not. A nil factory binds no funcs: the same loop walks the
// builtin greedy-then-oldest order, the greedy warp and then the age
// list, and makes no call at all.

// SchedView is the window a warp-scheduler policy gets onto one SMX's
// scheduling state. It is handed to a SchedFactory at NewSMX, after
// the warp store is built and sized; all methods read the live store,
// and none of them allocates. The view stays valid for the SMX's
// lifetime.
type SchedView struct {
	s *SMX
}

// NumWarps returns the number of resident warps. Warp w belongs to
// scheduler w % NumSchedulers; its rank within that scheduler's stride
// is w / NumSchedulers.
func (v SchedView) NumWarps() int { return v.s.st.n }

// NumSchedulers returns the number of warp schedulers per SMX.
func (v SchedView) NumSchedulers() int { return v.s.nsched }

// LastPicked returns the warp the scheduler issued from last, or -1.
func (v SchedView) LastPicked(sched int) int { return v.s.lastWarp[sched] }

// Oldest returns the first warp of the scheduler's age list, or -1 when
// the scheduler owns no warps. The engine keeps every scheduler's warps
// in ascending (last issue cycle, id) order, whatever the policy, so
// the list runs from the warp that has waited longest to the one that
// issued last, with never-issued warps first in id order.
func (v SchedView) Oldest(sched int) int { return int(v.s.gto[sched].head) }

// Younger returns the warp after w in its scheduler's age list, or -1
// after the last.
func (v SchedView) Younger(w int) int { return int(v.s.gtoNext[w]) }

// SchedProgram is one SMX's bound warp-scheduler instance: the func
// values NewSMX devirtualizes into the issue path.
type SchedProgram struct {
	// Order links scheduler sched's warps in preference order: it returns
	// the first warp, or -1, and sets link[w] to the warp after w, -1 after
	// the last. Every warp of the scheduler appears once, issuable or not.
	// The order may change only when a warp issues.
	//
	// The engine calls Order once per scheduler turn that is not ruled
	// out by the idle cache, then tries the chain's issuable warps in
	// order until one issues. Determinism contract: the order must be a
	// pure function of SchedView state and the policy's own state (no
	// wall clock, no RNG, no map iteration), with ties broken lowest-id
	// first.
	Order func(sched int, link []int32) int32
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
