// Package raysort implements the classic stream-reordering alternative
// to dynamic shuffling: sort the whole ray stream up front by a Morton
// key over ray origin and direction, then trace with the stock
// while-while kernel. Rays that start near each other and point the
// same way traverse the same BVH subtrees, so the sorted stream packs
// coherent rays into the same warps before launch — the ray-sorting
// family of the coherence literature (Pharr et al. reordering,
// Garanzha & Loop's compression-sorting-decompression pipeline).
//
// Unlike DRS/DMK/TBC/SER, nothing happens at divergence: all the
// benefit (and all the cost) is in the pre-pass. The modeled cost is
// the sort's GPU time, reported through reorder.Stats.CostCycles and
// folded into the harness throughput figure; the trace itself is
// byte-identical to running "aila" on the permuted stream.
//
// Determinism: the key is a pure function of the ray and the stream's
// bounding box, ties break on the original stream index (stable sort),
// and the permutation is applied before SMX partitioning so every
// engine sees the same deterministic input.
package raysort

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/reorder"
	"repro/internal/simt"
	"repro/internal/vec"
)

// Config holds the sort parameters.
type Config struct {
	// OriginBits is the number of Morton bits per origin axis
	// (quantized against the stream's bounding box). Defaults to 10
	// (the 30-bit curve the LBVH builder uses).
	OriginBits int
	// DirBits is the number of bits per direction axis, appended below
	// the origin key so rays from the same cell sort by heading.
	// Defaults to 2.
	DirBits int
	// RaysPerCycle models the sort throughput: a GPU radix sort is
	// memory-bound and processes a handful of keys per clock across the
	// chip. Defaults to 8.
	RaysPerCycle int
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{OriginBits: 10, DirBits: 2, RaysPerCycle: 8}
}

// Policy adapts global ray sorting to the reorder.Policy interface.
// It is both a Policy and a StreamSorter: the harness calls SortStream
// once on the full stream before partitioning rays across SMXs,
// applies the permutation, charges the returned cost against the run's
// throughput, and records it as the run/sort_cost_cycles metric.
// SortStream is pure — the policy holds no run state, so the harness's
// determinism re-run reuses the same instance safely.
type Policy struct {
	Cfg Config
}

// NewPolicy wraps a sort configuration as a policy.
func NewPolicy(cfg Config) *Policy { return &Policy{Cfg: cfg} }

// Name implements reorder.Policy.
func (p *Policy) Name() string { return "sort" }

// Summary implements reorder.Policy.
func (p *Policy) Summary() string {
	return "global ray sorting: Morton order over origin+direction before launch, stock kernel after"
}

// Validate implements reorder.Policy: the key must fit in 64 bits and
// negatives signal caller confusion (zero selects the default).
func (p *Policy) Validate() error {
	cfg := p.Cfg.withDefaults()
	if p.Cfg.OriginBits < 0 || p.Cfg.DirBits < 0 || p.Cfg.RaysPerCycle < 0 {
		return &ConfigError{Reason: "values must not be negative (zero selects the default)"}
	}
	if bits := 3 * (cfg.OriginBits + cfg.DirBits); bits > 63 {
		return &ConfigError{Reason: "OriginBits+DirBits exceed the 64-bit key"}
	}
	return nil
}

// Warps implements reorder.Policy: 0 accepts the harness warp count.
func (p *Policy) Warps() int { return 0 }

// Caps implements reorder.Policy.
func (p *Policy) Caps() progcheck.Caps { return progcheck.Caps{} }

func (c Config) withDefaults() Config {
	if c.OriginBits <= 0 {
		c.OriginBits = 10
	}
	if c.DirBits <= 0 {
		c.DirBits = 2
	}
	if c.RaysPerCycle <= 0 {
		c.RaysPerCycle = 8
	}
	return c
}

// SortStream implements reorder.StreamSorter: it returns the
// permutation (perm[newIndex] = oldIndex) ordering the stream along
// the Morton curve, and the modeled cost of computing it on the GPU.
func (p *Policy) SortStream(rays []geom.Ray) (perm []int, costCycles int64) {
	cfg := p.Cfg.withDefaults()
	perm = make([]int, len(rays))
	for i := range perm {
		perm[i] = i
	}
	if len(rays) == 0 {
		return perm, 0
	}

	// Stream bounds for origin quantization (directions quantize by
	// sign+dominance, no bounds needed).
	minO, maxO := rays[0].Origin, rays[0].Origin
	for _, r := range rays[1:] {
		minO = minO.Min(r.Origin)
		maxO = maxO.Max(r.Origin)
	}
	diag := maxO.Sub(minO)
	inv := func(d float32) float32 {
		if d <= 0 {
			return 0
		}
		return 1 / d
	}
	sx, sy, sz := inv(diag.X), inv(diag.Y), inv(diag.Z)

	keys := make([]uint64, len(rays))
	for i, r := range rays {
		keys[i] = rayKey(r, minO, sx, sy, sz, cfg.OriginBits, cfg.DirBits)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return keys[perm[a]] < keys[perm[b]]
	})

	// Modeled cost: a memory-bound radix sort streaming the key array.
	costCycles = (int64(len(rays)) + int64(cfg.RaysPerCycle) - 1) / int64(cfg.RaysPerCycle)
	return perm, costCycles
}

// rayKey builds the Morton key: origin cell bits interleaved on top,
// direction bits below, so rays sort first by cell and then by
// heading within the cell.
func rayKey(r geom.Ray, minO vec.V3, sx, sy, sz float32, originBits, dirBits int) uint64 {
	scale := float32(uint32(1)<<uint(originBits)) - 1
	ox := quantize((r.Origin.X-minO.X)*sx, scale)
	oy := quantize((r.Origin.Y-minO.Y)*sy, scale)
	oz := quantize((r.Origin.Z-minO.Z)*sz, scale)
	key := interleave3(ox, oy, oz, originBits)

	dscale := float32(uint32(1)<<uint(dirBits)) - 1
	dx := quantize((r.Dir.X+1)*0.5, dscale)
	dy := quantize((r.Dir.Y+1)*0.5, dscale)
	dz := quantize((r.Dir.Z+1)*0.5, dscale)
	return key<<uint(3*dirBits) | interleave3(dx, dy, dz, dirBits)
}

// quantize clamps v to [0,1] and scales to an integer cell.
func quantize(v, scale float32) uint32 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return uint32(v * scale)
}

// interleave3 builds a 3*bits-bit Morton code bit by bit. The stream
// is sorted once per run; clarity beats the magic-constant spread.
func interleave3(x, y, z uint32, bits int) uint64 {
	var code uint64
	for b := bits - 1; b >= 0; b-- {
		code = code<<3 |
			uint64(x>>uint(b)&1)<<2 |
			uint64(y>>uint(b)&1)<<1 |
			uint64(z>>uint(b)&1)
	}
	return code
}

// NewSMX implements reorder.Policy: after the pre-pass the trace is
// the stock baseline (with whatever kernel options the run selects).
func (p *Policy) NewSMX(env reorder.Env) (reorder.Instance, error) {
	k := kernels.NewAila(env.Data, env.Pool, env.Cfg.MaxWarpsPerSMX*env.Cfg.WarpSize, env.Aila)
	return &instance{k: k}, nil
}

// instance is one SMX's view of the sorted run. The sort itself is
// stream-global; per-SMX there is nothing to hook.
type instance struct {
	k *kernels.Aila
}

func (i *instance) Program() simt.SMXProgram { return simt.SMXProgram{Kernel: i.k} }

func (i *instance) Hits() []geom.Hit { return i.k.Hits }

// ReorderStats implements reorder.StatsReporter: per-SMX there is
// nothing to report — the harness accounts the stream-level sort
// (one reorder of the whole stream plus its modeled cost) itself.
func (i *instance) ReorderStats() reorder.Stats { return reorder.Stats{} }

// ConfigError reports an invalid sort configuration.
type ConfigError struct {
	Reason string
}

func (e *ConfigError) Error() string { return "raysort: " + e.Reason }
