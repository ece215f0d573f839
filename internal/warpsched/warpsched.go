// Package warpsched defines the pluggable warp-scheduler registry, the
// scheduling-dimension sibling of internal/reorder's ray-reordering
// framework. A Scheduler packages one intra-SMX warp scheduling policy
// — greedy-then-oldest (the paper's Table 1 configuration), loose
// round-robin, or a WaSP-style distance-based prefetch-mimicking
// scheduler — behind a single interface, so the policy is a registry
// lookup instead of a hard-coded enum and new policies plug in without
// touching the engine.
//
// # Devirtualization contract
//
// A policy is its preference order. Once per scheduler turn, on the
// engine's hottest loop, the bound SchedProgram.Order links the
// scheduler's warps in that order, and the engine's one turn loop
// tries the issuable ones until one issues. So a Scheduler is not
// consulted through its interface at issue time: Factory returns a
// simt.SchedFactory, and NewSMX calls it once per SMX and stores the
// resulting SchedProgram's funcs in direct func fields next to the
// kernel Step binding (see internal/simt/sched.go). Per-SMX policy
// state (WaSP's issue counters) is allocated inside the factory; the
// bound funcs must not allocate, which TestWarpSchedZeroAlloc pins the
// same way TestSteadyCycleLoopZeroAlloc pins the engine's own loop.
//
// # Determinism obligations
//
// Policies run inside the bit-deterministic epoch-barrier engine: every
// order must be a pure function of SchedView state and the policy's
// own counters, with ties broken lowest-warp-id first (the engine's own
// convention). No wall clock, no RNG, no map iteration — drslint
// enforces this for the package like any other engine code.
package warpsched

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/simt"
)

// Scheduler is one configured warp-scheduling policy. A Scheduler
// value owns its policy-specific configuration (WaSP's runner count
// and target distance); the harness asks it for the per-SMX factory.
type Scheduler interface {
	// Name is the registry key ("gto", "lrr", "wasp"). It appears in
	// result tables and the sweep figure.
	Name() string
	// Summary is the one-line description -list-scheds prints.
	Summary() string
	// Validate checks the policy's configuration before any device
	// state is built.
	Validate() error
	// Factory returns the per-SMX builder NewSMX devirtualizes the
	// policy through. Nil means the engine's builtin greedy-then-oldest
	// order, which only GTO returns.
	Factory() simt.SchedFactory
}

// UnknownSchedulerError is the typed error for a scheduler name the
// registry does not know. Every layer that resolves names (harness
// options, drsbench flags, service job specs, arch configs) surfaces
// this one error type, so an unknown name fails in exactly one place.
type UnknownSchedulerError struct {
	// Name is the unresolved scheduler name.
	Name string
	// Known lists the registered names in registration order.
	Known []string
}

func (e *UnknownSchedulerError) Error() string {
	return fmt.Sprintf("warpsched: unknown scheduler %q; valid: %v", e.Name, e.Known)
}

// Registration is one registry row: the scheduler name and summary
// plus a factory for a default-configured instance.
type Registration struct {
	Name    string
	Summary string
	// New returns a freshly default-configured Scheduler. Callers that
	// need non-default parameters construct the value directly (the
	// configs are exported) and pass it via harness options.
	New func() Scheduler
}

// Registry maps scheduler names to registrations. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	byName map[string]Registration
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Registration)}
}

// Register adds a registration. Duplicate names and nil factories are
// registration-time bugs, reported as errors so a catalog test can pin
// the set.
func (r *Registry) Register(reg Registration) error {
	switch {
	case reg.Name == "":
		return fmt.Errorf("warpsched: registration with empty name")
	case reg.New == nil:
		return fmt.Errorf("warpsched: scheduler %q registered without a factory", reg.Name)
	}
	if _, dup := r.byName[reg.Name]; dup {
		return fmt.Errorf("warpsched: scheduler %q registered twice", reg.Name)
	}
	r.byName[reg.Name] = reg
	r.order = append(r.order, reg.Name)
	return nil
}

// MustRegister is Register that panics on error (catalog construction).
func (r *Registry) MustRegister(reg Registration) {
	if err := r.Register(reg); err != nil {
		panic(err)
	}
}

// Lookup returns the registration for name.
func (r *Registry) Lookup(name string) (Registration, bool) {
	reg, ok := r.byName[name]
	return reg, ok
}

// New returns a default-configured scheduler for name, or a typed
// *UnknownSchedulerError naming the valid set.
func (r *Registry) New(name string) (Scheduler, error) {
	reg, ok := r.byName[name]
	if !ok {
		return nil, &UnknownSchedulerError{Name: name, Known: r.Names()}
	}
	return reg.New(), nil
}

// Names returns the registered names in registration order (the
// canonical display and iteration order).
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// SortedNames returns the registered names sorted lexicographically.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

// builtin is the process-wide registry, built once. Registration order
// is the presentation order: the engine's historical default first.
var builtin = sync.OnceValue(func() *Registry {
	r := NewRegistry()
	r.MustRegister(Registration{
		Name:    "gto",
		Summary: NewGTO().Summary(),
		New:     func() Scheduler { return NewGTO() },
	})
	r.MustRegister(Registration{
		Name:    "lrr",
		Summary: NewLRR().Summary(),
		New:     func() Scheduler { return NewLRR() },
	})
	r.MustRegister(Registration{
		Name:    "wasp",
		Summary: DefaultWaSP().Summary(),
		New:     func() Scheduler { return DefaultWaSP() },
	})
	return r
})

// Builtin returns the registry of every built-in warp scheduler. It is
// the single source of the name→policy mapping: CLIs list it, the
// service and archconfig validate against it, and an unknown name
// fails here with a typed *UnknownSchedulerError and nowhere else.
func Builtin() *Registry { return builtin() }
