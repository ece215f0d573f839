// Package regfile models the per-SMX banked register file and operand
// collector of a Kepler-class GPU. Current GPU register files are built
// from single-ported SRAM banks; an operand collector buffers source
// operands and arbitrates bank accesses. The model tracks two things
// the experiments need:
//
//   - access counts, split between regular instruction operands and DRS
//     ray-shuffling traffic (§4.4 reports shuffling at 7.36% of accesses
//     for primary rays and 18.79% for secondary rays), and
//   - per-cycle bank occupancy, so the DRS swap engine's register moves
//     contend with instruction operands the way the paper describes
//     (swap time is "affected by the bank conflicts of a register file").
package regfile

import (
	"fmt"

	"repro/internal/metrics"
)

// Config holds register file parameters.
type Config struct {
	NumBanks     int // single-ported SRAM banks
	RegsPerSMX   int // total 32-bit registers per SMX (Table 1: 65536)
	WarpSize     int
	BytesPerSMXK int // derived size in KB
}

// DefaultConfig returns the GTX780 register file parameters: 65536
// registers per SMX (256 KB) across 32 banks.
func DefaultConfig() Config {
	return Config{NumBanks: 32, RegsPerSMX: 65536, WarpSize: 32}
}

// Stats counts register file activity.
type Stats struct {
	// OperandReads/Writes are accesses made by instruction execution.
	OperandReads  int64
	OperandWrites int64
	// ShuffleReads/Writes are accesses made by the DRS swap engine.
	ShuffleReads  int64
	ShuffleWrites int64
	// BankConflictCycles counts extra cycles lost to intra-instruction
	// bank conflicts in the operand collector.
	BankConflictCycles int64
	// ShuffleRetryCycles counts swap-engine transfers deferred because
	// the target bank was busy with instruction operands.
	ShuffleRetryCycles int64
}

// Add merges o into s. Every numeric field must be merged here: the
// device-level register file counters are produced by folding the
// per-SMX stats with this method, so a field missed by Add silently
// vanishes from the reports (statcheck.AddCovers guards against that).
func (s *Stats) Add(o Stats) {
	s.OperandReads += o.OperandReads
	s.OperandWrites += o.OperandWrites
	s.ShuffleReads += o.ShuffleReads
	s.ShuffleWrites += o.ShuffleWrites
	s.BankConflictCycles += o.BankConflictCycles
	s.ShuffleRetryCycles += o.ShuffleRetryCycles
}

// TotalAccesses returns all reads and writes.
func (s Stats) TotalAccesses() int64 {
	return s.OperandReads + s.OperandWrites + s.ShuffleReads + s.ShuffleWrites
}

// ShuffleShare returns the fraction of accesses caused by shuffling.
func (s Stats) ShuffleShare() float64 {
	t := s.TotalAccesses()
	if t == 0 {
		return 0
	}
	return float64(s.ShuffleReads+s.ShuffleWrites) / float64(t)
}

// ringSize bounds how far ahead bank reservations are tracked.
const ringSize = 16

// MaxBanks is the largest bank count the model supports: bank
// occupancy is a uint64 bitmask per cycle.
const MaxBanks = 64

// File is the per-SMX register file model. It is not safe for
// concurrent use; each SMX goroutine owns one.
type File struct {
	cfg   Config
	stats Stats
	// busy is a ring of per-cycle bank occupancy bitmasks (bit i =
	// bank i busy). Supports up to MaxBanks banks.
	busy    [ringSize]uint64
	current int64 // cycle corresponding to ring slot current%ringSize
}

// New creates a register file model. It panics on a bank count outside
// [1, MaxBanks]; simt.Config.Validate rejects those first.
func New(cfg Config) *File {
	if cfg.NumBanks <= 0 || cfg.NumBanks > MaxBanks {
		panic(fmt.Sprintf("regfile: unsupported bank count %d", cfg.NumBanks))
	}
	if cfg.WarpSize <= 0 {
		cfg.WarpSize = 32
	}
	return &File{cfg: cfg}
}

// Stats returns a snapshot of the counters.
func (f *File) Stats() Stats { return f.stats }

// RegisterMetrics registers the register file's counters under prefix
// ("smx3/rf") in the unified registry. The probes read the live fields,
// so registration costs nothing on the access paths.
func (f *File) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.RegisterStruct(prefix, &f.stats)
}

// Advance moves the model's notion of "now" to cycle c, releasing
// reservations of past cycles.
func (f *File) Advance(c int64) {
	if c <= f.current {
		return
	}
	for f.current < c {
		f.current++
		f.busy[f.current%ringSize] = 0
	}
}

// bankOf maps a (physical row, register index) pair to a bank. GPU
// register files stripe a warp's registers across banks; row staggering
// spreads different warps' same-numbered registers over different banks.
func (f *File) bankOf(row, reg int) int {
	return (reg + row) % f.cfg.NumBanks
}

// CollectOperands accounts for the operand reads and result write of
// one warp instruction executing on physical row `row` with nSrc source
// operands. It returns the extra cycles lost to bank conflicts among
// the sources (single-ported banks serve one operand per cycle) and
// reserves the banks for the current cycle.
func (f *File) CollectOperands(now int64, row, baseReg, nSrc int) int {
	f.Advance(now)
	slot := &f.busy[now%ringSize]
	conflicts := 0
	var used uint64
	for i := 0; i < nSrc; i++ {
		b := uint64(1) << uint(f.bankOf(row, baseReg+i))
		if used&b != 0 {
			conflicts++
		}
		used |= b
		f.stats.OperandReads++
	}
	f.stats.OperandWrites++
	*slot |= used
	f.stats.BankConflictCycles += int64(conflicts)
	return conflicts
}

// TryShuffleTransfer attempts one swap-engine register transfer (one
// variable of one ray) at cycle `now`: a read from (srcRow, reg) and a
// write to (dstRow, reg). It fails if either bank is already busy this
// cycle with instruction operands or another transfer. On success the
// banks are reserved and the access is counted.
func (f *File) TryShuffleTransfer(now int64, srcRow, dstRow, reg int) bool {
	f.Advance(now)
	slot := &f.busy[now%ringSize]
	sb := uint64(1) << uint(f.bankOf(srcRow, reg))
	db := uint64(1) << uint(f.bankOf(dstRow, reg))
	if *slot&(sb|db) != 0 {
		f.stats.ShuffleRetryCycles++
		return false
	}
	*slot |= sb | db
	f.stats.ShuffleReads++
	f.stats.ShuffleWrites++
	return true
}
