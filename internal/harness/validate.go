package harness

import (
	"fmt"

	"repro/internal/reorder"
)

// OptionsError reports one invalid Options field. RunNamed and
// RunNamedCtx reject bad configurations up front with this typed error
// instead of letting them panic deep in the engine (a zero warp count
// used to surface as a divide-by-zero inside the scheduler); callers
// match it with errors.As.
type OptionsError struct {
	// Field names the offending option ("PolicyOverrides", "Simt").
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("harness: invalid options: %s: %s", e.Field, e.Reason)
}

// MaxParallelism bounds Options.Parallelism: a worker-pool size beyond
// any plausible core count is a caller bug (or an unvalidated request),
// not a tuning choice.
const MaxParallelism = 4096

// resolve maps a run name to the policy instance that will serve it —
// the first matching entry of PolicyOverrides, else the registry
// default — and validates the options against it, returning the first
// rejection: the registry's typed *reorder.UnknownPolicyError for an
// unknown name (the registry is the only place a name is judged),
// otherwise a typed *OptionsError naming the field. RunNamedCtx calls
// it before building any device state, so a malformed configuration
// fails fast with a named field instead of panicking in the engine.
func (o Options) resolve(name string) (reorder.Policy, error) {
	var pol reorder.Policy
	for _, p := range o.PolicyOverrides {
		if p != nil && p.Name() == name {
			pol = p
			break
		}
	}
	if pol == nil {
		var err error
		if pol, err = Policies().New(name); err != nil {
			return nil, err
		}
	}
	if err := pol.Validate(); err != nil {
		return nil, &OptionsError{
			Field:  "PolicyOverrides",
			Reason: fmt.Sprintf("%s configuration rejected: %v", pol.Name(), err),
		}
	}
	// A factory set on the device config would run while Result.Sched
	// reported "gto"; the scheduler instance judges its own
	// configuration, like the policy.
	if o.Simt.SchedFactory != nil {
		return nil, &OptionsError{
			Field:  "Simt.SchedFactory",
			Reason: "choose the scheduler with Scheduler",
		}
	}
	if o.Scheduler != nil {
		if err := o.Scheduler.Validate(); err != nil {
			return nil, &OptionsError{
				Field:  "Scheduler",
				Reason: fmt.Sprintf("%s configuration rejected: %v", o.Scheduler.Name(), err),
			}
		}
	}
	if o.Parallelism < 0 || o.Parallelism > MaxParallelism {
		return nil, &OptionsError{
			Field:  "Parallelism",
			Reason: fmt.Sprintf("worker count %d out of range [0,%d] (0 selects GOMAXPROCS)", o.Parallelism, MaxParallelism),
		}
	}
	if o.SeriesCap < 0 {
		return nil, &OptionsError{
			Field:  "SeriesCap",
			Reason: fmt.Sprintf("series ring capacity %d must not be negative (0 selects the default)", o.SeriesCap),
		}
	}
	if o.Simt.EpochCycles < 0 {
		return nil, &OptionsError{
			Field:  "Simt.EpochCycles",
			Reason: fmt.Sprintf("epoch length %d is below the floor of 1 device cycle (0 selects the default, which EpochLen clamps to the minimum L2-bound latency)", o.Simt.EpochCycles),
		}
	}
	// The device config has its own validator (warp size, SMX count,
	// warp budget, clock, epoch length); surface its verdict under one
	// field so callers see the same typed error shape for every
	// rejection. Substitute the policy's warp count the same way runOnce
	// will before validating.
	cfg := o.Simt
	if w := pol.Warps(); w > 0 {
		cfg.MaxWarpsPerSMX = w
	}
	if err := cfg.Validate(); err != nil {
		return nil, &OptionsError{Field: "Simt", Reason: err.Error()}
	}
	return pol, nil
}
