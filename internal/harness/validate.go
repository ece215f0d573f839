package harness

import (
	"errors"
	"fmt"

	"repro/internal/reorder"
)

// OptionsError reports one invalid Options field. RunNamed and
// RunNamedCtx reject bad configurations up front with this typed error
// instead of letting them panic deep in the engine (a zero warp count
// used to surface as a divide-by-zero inside the scheduler); callers
// match it with errors.As or AsOptionsError.
type OptionsError struct {
	// Field names the offending option ("AilaWarps", "Simt.NumSMX").
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("harness: invalid options: %s: %s", e.Field, e.Reason)
}

// AsOptionsError unwraps err to an *OptionsError if there is one.
func AsOptionsError(err error) (*OptionsError, bool) {
	var oe *OptionsError
	ok := errors.As(err, &oe)
	return oe, ok
}

// MaxParallelism bounds Options.Parallelism: a worker-pool size beyond
// any plausible core count is a caller bug (or an unvalidated request),
// not a tuning choice.
const MaxParallelism = 4096

// ValidatePolicy checks the options against the named policy they will
// run and returns the first rejection: the registry's typed
// *reorder.UnknownPolicyError for an unknown name, otherwise a typed
// *OptionsError naming the field. It asks the policy to validate its
// own configuration and checks the harness-level fields. RunNamed and
// RunNamedCtx perform the same validation before building any device
// state, so a malformed configuration fails fast with a named field
// instead of panicking in the engine.
func (o Options) ValidatePolicy(name string) error {
	pol, err := o.ResolvePolicy(name)
	if err != nil {
		return err
	}
	return o.validateResolved(pol)
}

// validateResolved checks an already-resolved policy plus the
// policy-independent options.
func (o Options) validateResolved(pol reorder.Policy) error {
	if err := pol.Validate(); err != nil {
		return &OptionsError{
			Field:  "Policy",
			Reason: fmt.Sprintf("%s configuration rejected: %v", pol.Name(), err),
		}
	}
	// The warp scheduler validates like the policy: the registry judges
	// the name (typed *warpsched.UnknownSchedulerError), the instance
	// judges its own configuration.
	sched, err := o.ResolveScheduler()
	if err != nil {
		return err
	}
	if sched != nil {
		if err := sched.Validate(); err != nil {
			return &OptionsError{
				Field:  "Sched",
				Reason: fmt.Sprintf("%s configuration rejected: %v", sched.Name(), err),
			}
		}
	}
	warps := pol.Warps()
	if warps <= 0 {
		if o.AilaWarps <= 0 {
			return &OptionsError{
				Field:  "AilaWarps",
				Reason: fmt.Sprintf("warp count %d must be positive for the %s policy (the paper uses 48)", o.AilaWarps, pol.Name()),
			}
		}
		warps = o.AilaWarps
	}
	if o.Parallelism < 0 || o.Parallelism > MaxParallelism {
		return &OptionsError{
			Field:  "Parallelism",
			Reason: fmt.Sprintf("worker count %d out of range [0,%d] (0 selects GOMAXPROCS)", o.Parallelism, MaxParallelism),
		}
	}
	if o.SeriesCap < 0 {
		return &OptionsError{
			Field:  "SeriesCap",
			Reason: fmt.Sprintf("series ring capacity %d must not be negative (0 selects the default)", o.SeriesCap),
		}
	}
	if o.Simt.EpochCycles < 0 {
		return &OptionsError{
			Field:  "Simt.EpochCycles",
			Reason: fmt.Sprintf("epoch length %d is below the floor of 1 device cycle (0 selects the default, which EpochLen clamps to the minimum L2-bound latency)", o.Simt.EpochCycles),
		}
	}
	// The device config has its own validator (warp size, SMX count,
	// clock, epoch length); surface its verdict under one field so callers see
	// the same typed error shape for every rejection. Substitute the
	// policy's warp count the same way runOnce will before validating.
	cfg := o.Simt
	cfg.MaxWarpsPerSMX = warps
	if err := cfg.Validate(); err != nil {
		return &OptionsError{Field: "Simt", Reason: err.Error()}
	}
	return nil
}
