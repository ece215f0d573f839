package harness

import (
	"repro/internal/archconfig"
	"repro/internal/core"
	"repro/internal/reorder"
)

// ApplyArch returns base with the declarative device model ac applied:
// the engine/memory/register-file configuration comes from the config,
// the harness warp budget follows warps_per_smx, the DRS policy picks
// up the config's pool budgets (as a PolicyOverride, so an explicit
// override or pinned Options.Policy still wins), and the config's
// default scheduler fills Options.Sched when the caller has not chosen
// one. Runtime knobs that are not device shape — scheduler factory,
// epoch length, cycle cap, collector, parallelism, kernel flavor — are
// preserved from base.
//
// Applying the "gtx780" config (or any of the four builtin
// architectures' configs) to DefaultOptions reproduces the hard-coded
// configuration byte-for-byte; the arch-equivalence tests pin that.
func ApplyArch(ac archconfig.Config, base Options) (Options, error) {
	ac.Normalize()
	if err := ac.Validate(); err != nil {
		return Options{}, err
	}
	o := base
	dev := ac.Simt()
	// Preserve base's runtime (non-device) engine knobs.
	dev.SchedFactory = base.Simt.SchedFactory
	dev.EpochCycles = base.Simt.EpochCycles
	dev.MaxCycles = base.Simt.MaxCycles
	dev.Collector = base.Simt.Collector
	o.Simt = dev
	o.AilaWarps = ac.WarpsPerSMX
	if o.Sched == "" && o.Scheduler == nil {
		o.Sched = ac.Sched
	}
	// The DRS pool budgets ride along as a policy override. The slice
	// is cloned so base's backing array is never mutated, and the new
	// entry is appended last so base's own overrides (and a pinned
	// Options.Policy) take precedence; with the default budgets this
	// override is exactly core.DefaultConfig and changes nothing.
	overrides := make([]reorder.Policy, 0, len(o.PolicyOverrides)+1)
	overrides = append(overrides, o.PolicyOverrides...)
	o.PolicyOverrides = append(overrides, core.NewPolicy(ac.DRS()))
	return o, nil
}
