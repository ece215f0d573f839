// Package archconfig externalizes the simulated device model into
// strict, declarative JSON, following the Accel-Sim methodology
// (PAPERS.md): the machine a run simulates — SMX count, warp
// width/warps-per-SMX, schedulers per SMX, L1/L2 cache geometry,
// hit/miss/DRAM latencies, register-file and DRS pool budgets — is
// validated data, not Go constants. The four builtin architectures'
// historical device configurations are checked-in configs
// (testdata/archs/ at the repo root) proven byte-identical to their
// hard-coded ancestors, and "modern-shaped" devices (more SMXs, wider
// L2, deeper DRAM) are one JSON file away.
//
// The decoder is spec-style, mirroring internal/service's JobSpec
// pipeline: duplicate keys, unknown fields, trailing garbage and
// oversized payloads are typed *ConfigError rejections, never silent
// accept-and-ignore; Normalize makes an omitted field identical to its
// explicit GTX780 default; Validate cross-checks against the engine
// caps progcheck verifies (warp width vs the uint32 lane-mask bound)
// and against the component validators (simt, memsys, core).
//
// Conversion methods (Simt, DRS) translate a validated config into the
// component configurations the harness wires together;
// harness.ApplyArch is the single place a config is applied to a run.
package archconfig

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/progcheck"
	"repro/internal/regfile"
	"repro/internal/simt"
	"repro/internal/warpsched"
)

// Config is one declarative device model. The zero value of every
// field means "use the GTX780 default" (Normalize substitutes it), so
// a config file states only what differs from Table 1. Field order
// here is the documentation order; JSON objects are unordered and the
// decoder rejects duplicates.
type Config struct {
	// Name identifies the device model ("gtx780", "modern-mid"). It is
	// the registry key JobSpecs and -arch-config reference; lowercase
	// [a-z0-9-], required.
	Name string `json:"name"`
	// Summary is an optional one-line description for -list-archs.
	Summary string `json:"summary,omitempty"`

	// WarpWidth is the SIMD lane count per warp (≤ 32: the engine
	// tracks lane activity in uint32 masks; see progcheck.MaxWarpWidth).
	WarpWidth int `json:"warp_width,omitempty"`
	// SMXCount is the number of SMXs per device.
	SMXCount int `json:"smx_count,omitempty"`
	// SchedulersPerSMX is the number of warp schedulers per SMX.
	SchedulersPerSMX int `json:"schedulers_per_smx,omitempty"`
	// DispatchPerScheduler is the number of instruction dispatch units
	// per scheduler.
	DispatchPerScheduler int `json:"dispatch_per_scheduler,omitempty"`
	// WarpsPerSMX is the resident warp budget policies that accept the
	// harness warp count run with (harness Options.Simt.MaxWarpsPerSMX).
	// Policies with their own machine sizing (DRS derives warps from
	// its row configuration) ignore it.
	WarpsPerSMX int `json:"warps_per_smx,omitempty"`
	// ClockMHz is the SMX clock.
	ClockMHz int `json:"clock_mhz,omitempty"`
	// Sched names the device's default warp scheduler ("gto", "lrr",
	// "wasp"; warpsched.Builtin() judges it). An explicit harness/spec
	// scheduler overrides it.
	Sched string `json:"sched,omitempty"`

	// LineBytes is the cache line size of every level.
	LineBytes int `json:"line_bytes,omitempty"`
	// L1DataKB and L1TexKB size the per-SMX L1 data and texture caches.
	L1DataKB int `json:"l1_data_kb,omitempty"`
	L1TexKB  int `json:"l1_tex_kb,omitempty"`
	// L1Assoc is the associativity of both L1s.
	L1Assoc int `json:"l1_assoc,omitempty"`
	// L2KB sizes the device-wide shared L2; L2Assoc its associativity.
	L2KB    int `json:"l2_kb,omitempty"`
	L2Assoc int `json:"l2_assoc,omitempty"`
	// L1HitLat is cycles from issue to data for an L1 hit; L2HitLat the
	// additional cycles for an L1 miss that hits L2; DRAMLat the
	// additional cycles for an L2 miss. The epoch-barrier engine's
	// determinism proof needs L1HitLat+L2HitLat to exceed the epoch
	// length, which simt.Config.EpochLen clamps automatically.
	L1HitLat int `json:"l1_hit_lat,omitempty"`
	L2HitLat int `json:"l2_hit_lat,omitempty"`
	DRAMLat  int `json:"dram_lat,omitempty"`
	// TxCycles is the extra cycles per additional coalesced transaction.
	TxCycles int `json:"tx_cycles,omitempty"`

	// RFBanks is the number of single-ported register-file SRAM banks;
	// RFRegsPerSMX the total 32-bit registers per SMX.
	RFBanks      int `json:"rf_banks,omitempty"`
	RFRegsPerSMX int `json:"rf_regs_per_smx,omitempty"`

	// DRSBackupRows, DRSSwapBuffers and DRSExtraBank are the DRS pool
	// budgets (paper §4.3): backup ray rows, swap buffers split across
	// the three collector roles, and whether backup rows live in an
	// extra register bank instead of displacing spawned warps.
	DRSBackupRows  int  `json:"drs_backup_rows,omitempty"`
	DRSSwapBuffers int  `json:"drs_swap_buffers,omitempty"`
	DRSExtraBank   bool `json:"drs_extra_bank,omitempty"`
}

// ConfigError reports one invalid config field — the archconfig
// counterpart of service.SpecError. Err, when non-nil, carries the
// underlying typed error (warpsched.UnknownSchedulerError for a bad
// scheduler name) through errors.As.
type ConfigError struct {
	// Field is the JSON field name ("warp_width"), or "body" for
	// decode-level failures.
	Field string
	// Reason says what is wrong with it.
	Reason string
	// Err is the underlying error, if a typed one exists.
	Err error
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("archconfig: invalid config: %s: %s", e.Field, e.Reason)
}

func (e *ConfigError) Unwrap() error { return e.Err }

// AsConfigError unwraps err to a *ConfigError if there is one.
func AsConfigError(err error) (*ConfigError, bool) {
	var ce *ConfigError
	ok := errors.As(err, &ce)
	return ce, ok
}

// UnknownArchError is the typed error for a device-model name the
// builtin catalog does not know, mirroring reorder.UnknownPolicyError:
// every layer that resolves arch names (harness options, drsbench
// flags, service job specs) surfaces this one type, so an unknown name
// fails in exactly one place.
type UnknownArchError struct {
	// Name is the unresolved device-model name.
	Name string
	// Known lists the catalog names in registration order.
	Known []string
}

func (e *UnknownArchError) Error() string {
	return fmt.Sprintf("archconfig: unknown architecture %q; valid: %v", e.Name, e.Known)
}

// Normalize substitutes the GTX780 default for every omitted
// (zero-valued) field, making an omitted field byte-identical in
// effect to its explicit default. Name and Summary are identity, not
// device shape, and are left alone; DRSExtraBank's zero value is the
// default itself.
func (c *Config) Normalize() {
	def := func(p *int, d int) {
		if *p == 0 {
			*p = d
		}
	}
	def(&c.WarpWidth, 32)
	def(&c.SMXCount, 15)
	def(&c.SchedulersPerSMX, 4)
	def(&c.DispatchPerScheduler, 2)
	def(&c.WarpsPerSMX, 48)
	def(&c.ClockMHz, 980)
	if c.Sched == "" {
		c.Sched = "gto"
	}
	def(&c.LineBytes, 128)
	def(&c.L1DataKB, 48)
	def(&c.L1TexKB, 48)
	def(&c.L1Assoc, 6)
	def(&c.L2KB, 1536)
	def(&c.L2Assoc, 16)
	def(&c.L1HitLat, 28)
	def(&c.L2HitLat, 170)
	def(&c.DRAMLat, 250)
	def(&c.TxCycles, 4)
	def(&c.RFBanks, 32)
	def(&c.RFRegsPerSMX, 65536)
	def(&c.DRSBackupRows, 1)
	def(&c.DRSSwapBuffers, 6)
}

// Normalized returns a normalized copy.
func (c Config) Normalized() Config {
	c.Normalize()
	return c
}

// Validate checks a normalized config and returns a typed
// *ConfigError for the first rejected field. The checks are
// cross-checked against the engine caps progcheck verifies (warp width
// vs the uint32 lane-mask bound) and finished by the component
// validators themselves (simt, memsys via simt, core), so a config
// that validates here builds a runnable device.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return &ConfigError{Field: "name", Reason: "required"}
	case !validName(c.Name):
		return &ConfigError{Field: "name", Reason: fmt.Sprintf("%q must be 1-64 chars of [a-z0-9-]", c.Name)}
	case c.WarpWidth < 1 || c.WarpWidth > progcheck.MaxWarpWidth:
		return &ConfigError{Field: "warp_width", Reason: fmt.Sprintf("%d out of range [1,%d] (the engine tracks lanes in uint32 masks; progcheck.MaxWarpWidth)", c.WarpWidth, progcheck.MaxWarpWidth)}
	case c.SMXCount < 1 || c.SMXCount > simt.MaxSMX:
		return &ConfigError{Field: "smx_count", Reason: fmt.Sprintf("%d out of range [1,%d] (simt.MaxSMX)", c.SMXCount, simt.MaxSMX)}
	case c.SchedulersPerSMX < 1 || c.SchedulersPerSMX > 64:
		return &ConfigError{Field: "schedulers_per_smx", Reason: fmt.Sprintf("%d out of range [1,64]", c.SchedulersPerSMX)}
	case c.DispatchPerScheduler < 1 || c.DispatchPerScheduler > 8:
		return &ConfigError{Field: "dispatch_per_scheduler", Reason: fmt.Sprintf("%d out of range [1,8]", c.DispatchPerScheduler)}
	case c.WarpsPerSMX < 1 || c.WarpsPerSMX > 1024:
		return &ConfigError{Field: "warps_per_smx", Reason: fmt.Sprintf("%d out of range [1,1024]", c.WarpsPerSMX)}
	case c.ClockMHz < 1 || c.ClockMHz > 10000:
		return &ConfigError{Field: "clock_mhz", Reason: fmt.Sprintf("%d out of range [1,10000] MHz", c.ClockMHz)}
	case c.LineBytes < 32 || c.LineBytes > 512 || c.LineBytes&(c.LineBytes-1) != 0:
		return &ConfigError{Field: "line_bytes", Reason: fmt.Sprintf("%d must be a power of two in [32,512]", c.LineBytes)}
	case c.L1DataKB < 1 || c.L1DataKB > 1024:
		return &ConfigError{Field: "l1_data_kb", Reason: fmt.Sprintf("%d out of range [1,1024]", c.L1DataKB)}
	case c.L1TexKB < 1 || c.L1TexKB > 1024:
		return &ConfigError{Field: "l1_tex_kb", Reason: fmt.Sprintf("%d out of range [1,1024]", c.L1TexKB)}
	case c.L1Assoc < 1 || c.L1Assoc > 64:
		return &ConfigError{Field: "l1_assoc", Reason: fmt.Sprintf("%d out of range [1,64]", c.L1Assoc)}
	case c.L2KB < 1 || c.L2KB > 1<<20:
		return &ConfigError{Field: "l2_kb", Reason: fmt.Sprintf("%d out of range [1,%d]", c.L2KB, 1<<20)}
	case c.L2Assoc < 1 || c.L2Assoc > 64:
		return &ConfigError{Field: "l2_assoc", Reason: fmt.Sprintf("%d out of range [1,64]", c.L2Assoc)}
	case c.L1HitLat < 1:
		return &ConfigError{Field: "l1_hit_lat", Reason: fmt.Sprintf("%d must be positive", c.L1HitLat)}
	case c.L2HitLat < c.L1HitLat:
		return &ConfigError{Field: "l2_hit_lat", Reason: fmt.Sprintf("%d must be at least the L1 hit latency %d (it is the additional L1-miss cost)", c.L2HitLat, c.L1HitLat)}
	case c.DRAMLat < c.L2HitLat:
		return &ConfigError{Field: "dram_lat", Reason: fmt.Sprintf("%d must be at least the L2 hit latency %d (it is the additional L2-miss cost)", c.DRAMLat, c.L2HitLat)}
	case c.TxCycles < 1 || c.TxCycles > 64:
		return &ConfigError{Field: "tx_cycles", Reason: fmt.Sprintf("%d out of range [1,64]", c.TxCycles)}
	case c.RFBanks < 1 || c.RFBanks > regfile.MaxBanks:
		return &ConfigError{Field: "rf_banks", Reason: fmt.Sprintf("%d out of range [1,%d] (the register file tracks bank occupancy in a uint64 mask; regfile.MaxBanks)", c.RFBanks, regfile.MaxBanks)}
	case c.RFRegsPerSMX < 1024 || c.RFRegsPerSMX > 1<<24:
		return &ConfigError{Field: "rf_regs_per_smx", Reason: fmt.Sprintf("%d out of range [1024,%d]", c.RFRegsPerSMX, 1<<24)}
	case c.DRSBackupRows < 1 || c.DRSBackupRows > 16:
		return &ConfigError{Field: "drs_backup_rows", Reason: fmt.Sprintf("%d out of range [1,16]", c.DRSBackupRows)}
	case c.DRSSwapBuffers < 3 || c.DRSSwapBuffers > 64:
		return &ConfigError{Field: "drs_swap_buffers", Reason: fmt.Sprintf("%d out of range [3,64] (one swap buffer per collector role minimum)", c.DRSSwapBuffers)}
	}
	if _, err := warpsched.Builtin().New(c.Sched); err != nil {
		return &ConfigError{Field: "sched", Reason: err.Error(), Err: err}
	}
	// Component validators have the final word: a config this package
	// accepts must build a runnable device.
	if err := c.Simt().Validate(); err != nil {
		return &ConfigError{Field: "body", Reason: fmt.Sprintf("device config rejected: %v", err)}
	}
	if err := c.DRS().Validate(); err != nil {
		return &ConfigError{Field: "body", Reason: fmt.Sprintf("DRS config rejected: %v", err)}
	}
	return nil
}

func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '-' && (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Simt translates the device model into the engine configuration.
// Runtime knobs that are not device shape — EpochCycles, MaxCycles,
// Collector, the scheduler factory — are left zero for the
// caller (harness.ApplyArch preserves them from the base options).
// MaxWarpsPerSMX carries WarpsPerSMX; the harness still substitutes a
// policy's own warp count exactly as it does for the hard-coded
// defaults.
func (c Config) Simt() simt.Config {
	return simt.Config{
		WarpSize:             c.WarpWidth,
		NumSMX:               c.SMXCount,
		SchedulersPerSMX:     c.SchedulersPerSMX,
		DispatchPerScheduler: c.DispatchPerScheduler,
		MaxWarpsPerSMX:       c.WarpsPerSMX,
		ClockMHz:             c.ClockMHz,
		Mem: memsys.Config{
			LineBytes: c.LineBytes,
			L1DataKB:  c.L1DataKB,
			L1TexKB:   c.L1TexKB,
			L1Assoc:   c.L1Assoc,
			L2KB:      c.L2KB,
			L2Assoc:   c.L2Assoc,
			L1HitLat:  c.L1HitLat,
			L2HitLat:  c.L2HitLat,
			DRAMLat:   c.DRAMLat,
			TxCycles:  c.TxCycles,
			NumSMX:    c.SMXCount,
		},
		RF: regfile.Config{
			NumBanks:   c.RFBanks,
			RegsPerSMX: c.RFRegsPerSMX,
			WarpSize:   c.WarpWidth,
		},
	}
}

// DRS translates the DRS pool budgets into the core policy
// configuration the paper's architecture runs with on this device.
func (c Config) DRS() core.Config {
	return core.Config{
		BackupRows:  c.DRSBackupRows,
		SwapBuffers: c.DRSSwapBuffers,
		ExtraBank:   c.DRSExtraBank,
		WarpSize:    c.WarpWidth,
	}
}
