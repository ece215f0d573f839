package reorder

import (
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/simt"
)

// Baseline is the explicit no-reordering policy: the stock while-while
// kernel with IPDOM divergence handling and no hooks attached. It is
// registered twice — as "aila" (the paper's software baseline, with
// whatever kernel optimizations Options.Aila selects) and as "noop"
// (the speedup denominator of the cross-policy figure) — so "no
// reordering" is a measured point, not an implicit absence.
type Baseline struct {
	// PolicyName distinguishes the two registrations ("aila", "noop").
	PolicyName string
	// PolicySummary is the registry description.
	PolicySummary string
}

// NewAilaBaseline returns the paper's software baseline as a policy.
func NewAilaBaseline() *Baseline {
	return &Baseline{
		PolicyName:    "aila",
		PolicySummary: "Aila while-while kernel, no reordering (paper's software baseline)",
	}
}

// NewNoop returns the explicit no-op policy.
func NewNoop() *Baseline {
	return &Baseline{
		PolicyName:    "noop",
		PolicySummary: "explicit no-op baseline: IPDOM divergence only, zero reordering cost",
	}
}

// Name implements Policy.
func (b *Baseline) Name() string { return b.PolicyName }

// Summary implements Policy.
func (b *Baseline) Summary() string { return b.PolicySummary }

// Validate implements Policy; a baseline has no parameters.
func (b *Baseline) Validate() error { return nil }

// Warps implements Policy: 0 accepts the harness warp count.
func (b *Baseline) Warps() int { return 0 }

// Caps implements Policy: the while-while kernel needs no gate and no
// control instructions.
func (b *Baseline) Caps() progcheck.Caps { return progcheck.Caps{} }

// NewSMX implements Policy.
func (b *Baseline) NewSMX(env Env) (Instance, error) {
	k := kernels.NewAila(env.Data, env.Pool, env.Cfg.MaxWarpsPerSMX*env.Cfg.WarpSize, env.Aila)
	return &baselineInstance{k: k}, nil
}

// baselineInstance is the no-hooks per-SMX instance.
type baselineInstance struct {
	k *kernels.Aila
}

func (i *baselineInstance) Program() simt.SMXProgram { return simt.SMXProgram{Kernel: i.k} }
func (i *baselineInstance) Hits() []geom.Hit         { return i.k.Hits }

// ReorderStats implements StatsReporter: a baseline never reorders.
func (i *baselineInstance) ReorderStats() Stats { return Stats{} }
