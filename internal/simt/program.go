// Package simt is the cycle-approximate SIMT GPU core model the
// experiments run on. It plays the role GPGPU-Sim plays in the paper:
// it executes kernels expressed as basic-block programs on warps of 32
// threads, models IPDOM reconvergence-stack divergence, greedy-then-
// oldest warp scheduling, a banked register file and the L1/L2 memory
// hierarchy, and it collects the statistics the paper reports (SIMD
// efficiency and utilization breakdown, cycles, stall rates).
//
// The engine is mechanism only. Architectures (the DRS in
// internal/core, the DMK and TBC baselines) attach as policy through
// the Hooks: an issue gate for gated instructions such as the DRS
// rdctrl, a per-cycle tick for co-processor state machines, a warp vote
// that may rewrite per-lane branch targets (speculative traversal), and
// a divergence interceptor that may take over warp re-formation.
package simt

import "repro/internal/memsys"

// BlockExit is the per-lane branch target that retires the lane's
// context (its thread of work is complete).
const BlockExit = -1

// Tag classifies issued instructions for the utilization breakdown.
type Tag uint8

// Instruction tags.
const (
	// TagNormal marks ordinary kernel instructions.
	TagNormal Tag = iota
	// TagSI marks micro-kernel spawn-related instructions (data dump
	// and load); the paper separates these in Figure 10 because they do
	// not contribute to useful computation.
	TagSI
	// TagCtrl marks DRS rdctrl instructions.
	TagCtrl
)

// MemAccess is one per-lane memory access generated by a block's
// semantics.
type MemAccess struct {
	Addr  uint64
	Bytes uint32
	Space memsys.Space
}

// MaxMemPerStep bounds the per-lane memory accesses of one block. A
// block's declared MemInsts must not exceed it, and Step must never
// fill more than this many accesses (internal/progcheck enforces both).
const MaxMemPerStep = 4

// StepResult is filled by Kernel.Step for each active lane when a warp
// enters a block: the lane's successor block and the memory accesses
// its slice of the block's memory instructions will perform.
type StepResult struct {
	Next int
	NMem int
	Mem  [MaxMemPerStep]MemAccess
}

// BlockInfo describes the static properties of one basic block.
type BlockInfo struct {
	Name string
	// Insts is the number of ALU/control warp instructions the block
	// represents (excluding memory instructions).
	Insts int
	// MemInsts is the number of memory instruction slots; lane l's k-th
	// recorded access is coalesced with other lanes' k-th accesses.
	MemInsts int
	// SrcOps is the number of source operands per instruction, for the
	// register file model. Zero means the default of 2.
	SrcOps int
	// Reconv is the block id where divergent successors of this block
	// reconverge. Required if the block can branch divergently.
	Reconv int
	// Gated blocks consult the issue gate before executing (the DRS
	// rdctrl semantics: the gate may stall the warp's issue).
	Gated bool
	// Tag classifies the block's instructions in the breakdown.
	Tag Tag
}

// Kernel is a program expressed over basic blocks, plus the semantic
// state of every thread context ("slot"). Slots are identified by dense
// int32 ids owned by the kernel; the engine maps warp lanes to slots
// and the architecture hooks may remap them (ray shuffling, warp
// compaction, micro-kernel respawn).
type Kernel interface {
	// Blocks returns the static block table. The engine reads it once.
	Blocks() []BlockInfo
	// Entry returns the block every warp starts at.
	Entry() int
	// Step executes block for the context in slot, filling res.
	Step(slot int32, block int, res *StepResult)
}

// StaticCFG is an optional Kernel extension: a kernel that implements
// it declares the static control-flow graph of its program — for every
// block, the complete set of targets Step may write to StepResult.Next
// (BlockExit included, when the block can retire a lane). The engine
// never consults it; internal/progcheck verifies the declared graph
// (successor ranges, reconvergence points against the computed
// immediate post-dominators, reachability) and cross-checks it against
// the successors Step actually emits.
type StaticCFG interface {
	// Successors returns the declared successor set of block. The
	// returned slice must not be mutated by callers.
	Successors(block int) []int
}

// WarpVoter is an optional Kernel extension. After Step has run for all
// active lanes of a warp entering a block, Vote may inspect and rewrite
// the lanes' Next targets using warp-wide information (Aila's
// speculative traversal break is implemented this way). slots[i] gives
// the kernel slot of the i-th active lane; res[i] is that lane's
// StepResult.
type WarpVoter interface {
	Vote(warp, block int, slots []int32, res []*StepResult)
}

// GateResult tells the engine what to do with a warp that reached a
// gated block.
type GateResult uint8

// Gate outcomes.
const (
	// GateProceed lets the warp execute the gated block.
	GateProceed GateResult = iota
	// GateStall suspends the warp's issue this cycle; the gate will be
	// consulted again.
	GateStall
	// GateExit terminates the warp (kernel complete for this warp).
	GateExit
)

// Hooks connects an architecture to the engine. All fields are
// optional.
type Hooks struct {
	// Gate is consulted when a warp is about to enter a Gated block.
	Gate func(s *SMX, warp int, now int64) GateResult
	// GateHolds, if set, reports whether every warp whose last Gate
	// call returned GateStall, and that has not been launched,
	// remapped or resumed since, would get GateStall again now from a
	// Gate call with no side effects. While it does, the engine charges
	// such a warp's retry exactly what that call would — one CtrlStalls
	// and a retry next cycle — without making the call. The engine asks
	// at most once between two real issue attempts, since a charged
	// stall changes nothing the hook can read. A hook that cannot
	// answer cheaply leaves it nil, and every retry calls Gate.
	GateHolds func() bool
	// Tick runs once per SMX cycle before issue (co-processor state
	// machines such as the DRS swap engine).
	Tick func(s *SMX, now int64)
	// OnDiverge is consulted when a warp finished a block and its lanes
	// have different successor targets (after exit-lane retirement). If
	// it returns true the engine skips IPDOM stack handling; the hook
	// has already re-formed the warp (set mapping/block or parked it).
	// lanes and targets are parallel: the active lanes and their
	// targets.
	OnDiverge func(s *SMX, warp, block int, lanes []int, targets []int) bool
	// OnBlockEnd, if set, is consulted at EVERY block completion, even
	// uniform ones (thread block compaction synchronizes all warps of a
	// block at potentially-divergent branches, not only at branches
	// that actually diverged). Semantics otherwise match OnDiverge.
	// When both hooks are set, OnBlockEnd is consulted first.
	OnBlockEnd func(s *SMX, warp, block int, lanes []int, targets []int) bool
	// OnWarpDone runs when a warp retires its last lane.
	OnWarpDone func(s *SMX, warp int)
}
