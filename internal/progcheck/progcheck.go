// Package progcheck statically verifies kernel programs before they
// reach the simt engine, and lints the simulator's own Go source for
// determinism hazards (see srclint.go).
//
// Every architecture in this repo is expressed as a hand-authored
// basic-block SIMT program whose correctness rests on hand-declared
// invariants: BlockInfo.Reconv must be a true reconvergence point,
// declared MemInsts must bound the accesses Step emits, successors must
// be in range. The engine trusts all of it; a wrong declaration does
// not crash — it silently skews SIMD efficiency, cycle counts and the
// paper's figures. This package makes the invariants checkable:
//
//   - Verify runs the static checks over a kernel's block table and its
//     declared control-flow graph (simt.StaticCFG): successor ranges,
//     reachability, termination (every block can reach BlockExit),
//     memory budgets, and reconvergence points validated against an
//     independently computed immediate post-dominator tree.
//   - Explore (explore.go) drives Kernel.Step on a scratch instance and
//     cross-checks every observed transition and memory access against
//     the declared program.
//
// The harness verifies every SMX's kernel against its policy's Caps
// before a run; cmd/drslint runs both passes across all registered
// kernels x scenes.
package progcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/simt"
)

// Rule identifies one verifier diagnostic class.
type Rule string

// Program verification rules.
const (
	// RuleNoBlocks: the kernel declares an empty block table.
	RuleNoBlocks Rule = "no-blocks"
	// RuleEntryRange: the entry block id is out of range.
	RuleEntryRange Rule = "entry-range"
	// RuleInstCount: a block declares neither ALU nor memory
	// instructions (the engine would reject it).
	RuleInstCount Rule = "inst-count"
	// RuleMemBudget: a block declares more memory instruction slots than
	// simt.MaxMemPerStep, the capacity of a StepResult.
	RuleMemBudget Rule = "mem-budget"
	// RuleSrcOps: a block declares a negative or implausibly large
	// per-instruction source operand count.
	RuleSrcOps Rule = "src-ops"
	// RuleSuccRange: a declared successor is neither a block id nor
	// simt.BlockExit.
	RuleSuccRange Rule = "succ-range"
	// RuleNoSucc: a block declares no successors at all; a warp entering
	// it could never leave.
	RuleNoSucc Rule = "no-successors"
	// RuleUnreachable: a block cannot be reached from the entry.
	RuleUnreachable Rule = "unreachable"
	// RuleNoExitPath: no path from the block ever retires a lane; warps
	// reaching it would spin forever.
	RuleNoExitPath Rule = "no-exit-path"
	// RuleReconvRange: a divergent block's declared Reconv is out of
	// range.
	RuleReconvRange Rule = "reconv-range"
	// RuleReconvMissing: a block can diverge but declares no
	// reconvergence point (Reconv left at the zero value, and block 0 is
	// not a valid reconvergence point for it).
	RuleReconvMissing Rule = "reconv-missing"
	// RuleReconvIPDOM: a divergent block's declared Reconv is neither
	// the computed immediate post-dominator nor a dominating loop
	// header.
	RuleReconvIPDOM Rule = "reconv-ipdom"
	// RuleGateUnserved: a block is Gated but the attached architecture
	// installs no issue gate; the engine would silently run the block
	// ungated.
	RuleGateUnserved Rule = "gate-unserved"
	// RuleTagUnserved: a block carries an instruction tag the attached
	// architecture gives no meaning to, skewing the utilization
	// breakdown.
	RuleTagUnserved Rule = "tag-unserved"
	// RuleEdgeUndeclared (exploration): Step emitted a successor the
	// static CFG does not declare.
	RuleEdgeUndeclared Rule = "edge-undeclared"
	// RuleMemOverflow (exploration): Step emitted more memory accesses
	// than the block declares in MemInsts.
	RuleMemOverflow Rule = "mem-overflow"
)

// Finding is one verifier diagnostic.
type Finding struct {
	// Kernel names the program the finding is about (may be empty when
	// the caller did not label it).
	Kernel string `json:"kernel,omitempty"`
	// Rule classifies the diagnostic.
	Rule Rule `json:"rule"`
	// Block is the offending block id, or -1 for program-level findings.
	Block int `json:"block"`
	// Msg is the human-readable diagnostic.
	Msg string `json:"msg"`
}

func (f Finding) String() string {
	where := ""
	if f.Kernel != "" {
		where = f.Kernel + ": "
	}
	return fmt.Sprintf("%s%s: %s", where, f.Rule, f.Msg)
}

// Caps describes what the attached architecture can service, for the
// checks that depend on the kernel/architecture pairing. The zero value
// is a plain engine run with no hooks.
type Caps struct {
	// Gate is set when the architecture installs an issue gate
	// (simt.Hooks.Gate), giving Gated blocks their stall semantics.
	Gate bool
	// CtrlTag is set when the architecture gives TagCtrl instructions
	// meaning (the DRS rdctrl accounting).
	CtrlTag bool
}

// maxSrcOps is the sanity bound on declared per-instruction source
// operands (hardware reads at most a handful of operands per
// instruction; the register file model collects them one bank access
// each).
const maxSrcOps = 8

// MaxWarpWidth is the widest warp the verified engine supports: lane
// activity is a uint32 mask throughout (vote, ballot, divergence,
// retirement), and every property progcheck explores about Step
// behavior assumes at most 32 lanes. Device-model validation
// (internal/archconfig) cross-checks declared warp widths against this
// cap so a config cannot describe a machine the engine would silently
// mis-simulate.
const MaxWarpWidth = 32

// blockName formats "block 3 (leaf)" for diagnostics.
func blockName(blocks []simt.BlockInfo, b int) string {
	if b >= 0 && b < len(blocks) && blocks[b].Name != "" {
		return fmt.Sprintf("block %d (%s)", b, blocks[b].Name)
	}
	return fmt.Sprintf("block %d", b)
}

// nodeName formats a graph node for diagnostics, naming the virtual
// exit node.
func nodeName(blocks []simt.BlockInfo, node int) string {
	if node == len(blocks) {
		return "exit"
	}
	return blockName(blocks, node)
}

// Verify runs every static check over the kernel's program: the block
// table invariants, the architecture pairing in caps, and — when the
// kernel declares its control-flow graph via simt.StaticCFG — the CFG
// checks (successor ranges, reachability, termination, reconvergence
// points against the computed immediate post-dominator tree). The
// kernel is not executed. Findings come back sorted by block id.
func Verify(name string, k simt.Kernel, caps Caps) []Finding {
	var fs []Finding
	add := func(rule Rule, block int, format string, args ...any) {
		fs = append(fs, Finding{Kernel: name, Rule: rule, Block: block, Msg: fmt.Sprintf(format, args...)})
	}

	blocks := k.Blocks()
	if len(blocks) == 0 {
		add(RuleNoBlocks, -1, "kernel declares no blocks")
		return fs
	}
	entry := k.Entry()
	if entry < 0 || entry >= len(blocks) {
		add(RuleEntryRange, -1, "entry block %d out of range [0,%d)", entry, len(blocks))
		return fs
	}

	for b, info := range blocks {
		if info.Insts <= 0 && info.MemInsts <= 0 {
			add(RuleInstCount, b, "%s declares no instructions (Insts=%d, MemInsts=%d)",
				blockName(blocks, b), info.Insts, info.MemInsts)
		}
		if info.MemInsts < 0 || info.MemInsts > simt.MaxMemPerStep {
			add(RuleMemBudget, b, "%s declares %d memory instruction slots; a step carries at most %d",
				blockName(blocks, b), info.MemInsts, simt.MaxMemPerStep)
		}
		if info.SrcOps < 0 || info.SrcOps > maxSrcOps {
			add(RuleSrcOps, b, "%s declares %d source operands per instruction; expected 0..%d",
				blockName(blocks, b), info.SrcOps, maxSrcOps)
		}
		if info.Gated && !caps.Gate {
			add(RuleGateUnserved, b, "%s is gated but the architecture installs no issue gate; it would run ungated",
				blockName(blocks, b))
		}
		if info.Tag == simt.TagCtrl && !caps.CtrlTag {
			add(RuleTagUnserved, b, "%s is tagged as a control (rdctrl) block but the architecture has no control instruction accounting",
				blockName(blocks, b))
		}
	}

	if cfg, ok := k.(simt.StaticCFG); ok {
		fs = append(fs, verifyCFG(name, blocks, entry, cfg)...)
	}

	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Block < fs[j].Block })
	return fs
}

// verifyCFG checks the declared control-flow graph.
func verifyCFG(name string, blocks []simt.BlockInfo, entry int, cfg simt.StaticCFG) []Finding {
	var fs []Finding
	add := func(rule Rule, block int, format string, args ...any) {
		fs = append(fs, Finding{Kernel: name, Rule: rule, Block: block, Msg: fmt.Sprintf(format, args...)})
	}

	n := len(blocks)
	succs := make([][]int, n)
	rangeOK := true
	for b := 0; b < n; b++ {
		succs[b] = cfg.Successors(b)
		if len(succs[b]) == 0 {
			add(RuleNoSucc, b, "%s declares no successors; a warp entering it could never leave",
				blockName(blocks, b))
			rangeOK = false
			continue
		}
		for _, t := range succs[b] {
			if t != simt.BlockExit && (t < 0 || t >= n) {
				add(RuleSuccRange, b, "%s declares successor %d; want a block in [0,%d) or BlockExit",
					blockName(blocks, b), t, n)
				rangeOK = false
			}
		}
	}
	if !rangeOK {
		// The graph analyses below assume a well-formed edge set; stop at
		// the structural errors.
		return fs
	}

	g := newGraph(n, entry, succs, simt.BlockExit)
	reach := g.reachableFrom(entry)
	for b := 0; b < n; b++ {
		if !reach.has(b) {
			add(RuleUnreachable, b, "%s is unreachable from entry %s",
				blockName(blocks, b), blockName(blocks, entry))
		}
	}
	reachesExit := g.canReachExit()
	for b := 0; b < n; b++ {
		if reach.has(b) && !reachesExit.has(b) {
			add(RuleNoExitPath, b, "no path from %s ever retires a lane (BlockExit unreachable); warps reaching it spin forever",
				blockName(blocks, b))
		}
	}

	pdom := g.postDominators()
	dom := g.dominators()
	for b := 0; b < n; b++ {
		if !reach.has(b) {
			continue
		}
		// The engine retires exiting lanes before divergence handling, so
		// only blocks with two or more distinct non-exit successors can
		// diverge.
		var nonExit []int
		for _, t := range g.succ[b] {
			if t != g.exit() {
				nonExit = append(nonExit, t)
			}
		}
		if len(nonExit) < 2 {
			continue
		}
		r := blocks[b].Reconv
		if r < 0 || r >= n {
			add(RuleReconvRange, b, "%s can diverge to %s but declares reconvergence block %d, out of range [0,%d)",
				blockName(blocks, b), succList(blocks, nonExit), r, n)
			continue
		}
		ip := ipdom(b, pdom, reachesExit)
		if ip >= 0 && ip < n && r == ip {
			continue // textbook: declared Reconv is the immediate post-dominator
		}
		// Loop-header reconvergence: persistent-thread kernels reconverge
		// at a dominating loop header (often the block itself) that every
		// divergent path re-enters — Aila's terminated-ray replacement
		// merges refilled lanes back at the inner loop, and the while-if
		// kernel's bodies all return to rdctrl. Sound because each pushed
		// stack entry runs until its pc reaches the header (or its lanes
		// retire, which removes them from every entry).
		headerOK := dom[b].has(r)
		if headerOK {
			for _, t := range nonExit {
				if !g.reachableFrom(t).has(r) {
					headerOK = false
					break
				}
			}
		}
		if headerOK {
			continue
		}
		ipName := "none (paths only merge at thread exit)"
		if ip >= 0 {
			ipName = nodeName(blocks, ip)
		}
		if r == 0 && ip != 0 {
			add(RuleReconvMissing, b, "%s can diverge to %s but declares no reconvergence point (Reconv is the zero value and block 0 is not a valid reconvergence point here); computed immediate post-dominator: %s",
				blockName(blocks, b), succList(blocks, nonExit), ipName)
		} else {
			add(RuleReconvIPDOM, b, "%s declares reconvergence at %s, but that is neither the computed immediate post-dominator (%s) nor a dominating loop header reachable from all successors",
				blockName(blocks, b), blockName(blocks, r), ipName)
		}
	}
	return fs
}

// succList formats a successor set for diagnostics.
func succList(blocks []simt.BlockInfo, succs []int) string {
	parts := make([]string, len(succs))
	for i, t := range succs {
		parts[i] = blockName(blocks, t)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
