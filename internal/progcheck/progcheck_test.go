package progcheck

import (
	"strings"
	"testing"

	"repro/internal/simt"
)

// fakeKernel is a synthetic kernel for verifier fixtures: a static
// block table, a declared CFG, and a scripted Step that follows a
// per-block successor schedule.
type fakeKernel struct {
	blocks []simt.BlockInfo
	entry  int
	succs  [][]int
	// step, if set, overrides the default Step (which follows the first
	// declared successor).
	step func(slot int32, block int, res *simt.StepResult)
}

func (f *fakeKernel) Blocks() []simt.BlockInfo { return f.blocks }
func (f *fakeKernel) Entry() int               { return f.entry }
func (f *fakeKernel) NumSlots() int            { return 4 }

func (f *fakeKernel) Step(slot int32, block int, res *simt.StepResult) {
	if f.step != nil {
		f.step(slot, block, res)
		return
	}
	if len(f.succs[block]) > 0 {
		res.Next = f.succs[block][0]
	} else {
		res.Next = simt.BlockExit
	}
}

func (f *fakeKernel) Successors(block int) []int { return f.succs[block] }

// diamond returns a well-formed diamond program:
//
//	0 -> {1,2}; 1 -> 3; 2 -> 3; 3 -> exit, with Reconv(0)=3.
func diamond() *fakeKernel {
	return &fakeKernel{
		blocks: []simt.BlockInfo{
			{Name: "head", Insts: 1, Reconv: 3},
			{Name: "then", Insts: 1},
			{Name: "else", Insts: 1},
			{Name: "join", Insts: 1},
		},
		succs: [][]int{
			{1, 2},
			{3},
			{3},
			{simt.BlockExit},
		},
	}
}

func findRule(fs []Finding, r Rule) *Finding {
	for i := range fs {
		if fs[i].Rule == r {
			return &fs[i]
		}
	}
	return nil
}

func TestVerifyCleanDiamond(t *testing.T) {
	fs := Verify("diamond", diamond(), Caps{})
	if len(fs) != 0 {
		t.Fatalf("clean diamond produced findings: %v", fs)
	}
}

// TestVerifyMalformed feeds deliberately broken programs to the
// verifier; each must produce its one distinct diagnostic.
func TestVerifyMalformed(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(k *fakeKernel)
		rule    Rule
		msgPart string
	}{
		{
			name:    "bad successor",
			mutate:  func(k *fakeKernel) { k.succs[1] = []int{7} },
			rule:    RuleSuccRange,
			msgPart: "declares successor 7",
		},
		{
			name: "missing reconv on divergent block",
			mutate: func(k *fakeKernel) {
				// Move the divergence to block 1 (1 -> {2,3}) which
				// declares no Reconv; its zero value points at block 0,
				// which neither matches the IPDOM (3) nor dominates 1
				// as a loop header would.
				k.succs[0] = []int{1}
				k.succs[1] = []int{2, 3}
				k.succs[2] = []int{3}
				k.blocks[0].Reconv = 0
			},
			rule:    RuleReconvMissing,
			msgPart: "declares no reconvergence point",
		},
		{
			name:    "wrong ipdom",
			mutate:  func(k *fakeKernel) { k.blocks[0].Reconv = 2 },
			rule:    RuleReconvIPDOM,
			msgPart: "immediate post-dominator",
		},
		{
			name:    "reconv out of range",
			mutate:  func(k *fakeKernel) { k.blocks[0].Reconv = 9 },
			rule:    RuleReconvRange,
			msgPart: "out of range",
		},
		{
			name: "over-budget declared memory",
			mutate: func(k *fakeKernel) {
				k.blocks[2].MemInsts = simt.MaxMemPerStep + 3
			},
			rule:    RuleMemBudget,
			msgPart: "memory instruction slots",
		},
		{
			name:    "unreachable block",
			mutate:  func(k *fakeKernel) { k.succs[0] = []int{1}; k.succs[1] = []int{3} },
			rule:    RuleUnreachable,
			msgPart: "unreachable",
		},
		{
			name: "no path to exit",
			mutate: func(k *fakeKernel) {
				// join loops back to head forever.
				k.succs[3] = []int{0}
			},
			rule:    RuleNoExitPath,
			msgPart: "no path",
		},
		{
			name:    "no successors at all",
			mutate:  func(k *fakeKernel) { k.succs[1] = nil },
			rule:    RuleNoSucc,
			msgPart: "no successors",
		},
		{
			name:    "negative instruction count",
			mutate:  func(k *fakeKernel) { k.blocks[1].Insts = -2 },
			rule:    RuleInstCount,
			msgPart: "declares no instructions",
		},
		{
			name:    "absurd source operand count",
			mutate:  func(k *fakeKernel) { k.blocks[1].SrcOps = 99 },
			rule:    RuleSrcOps,
			msgPart: "source operands",
		},
		{
			name:    "gated block without a gate",
			mutate:  func(k *fakeKernel) { k.blocks[0].Gated = true },
			rule:    RuleGateUnserved,
			msgPart: "gate",
		},
		{
			name:    "ctrl tag without a co-processor",
			mutate:  func(k *fakeKernel) { k.blocks[0].Tag = simt.TagCtrl },
			rule:    RuleTagUnserved,
			msgPart: "control",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := diamond()
			tc.mutate(k)
			fs := Verify("fixture", k, Caps{})
			f := findRule(fs, tc.rule)
			if f == nil {
				t.Fatalf("expected a %s finding, got %v", tc.rule, fs)
			}
			if !strings.Contains(f.Msg, tc.msgPart) {
				t.Errorf("finding %q does not mention %q", f.Msg, tc.msgPart)
			}
		})
	}
}

// TestVerifyAcceptsLoopHeaderReconv locks in the persistent-threads
// idiom: a loop whose divergent branch reconverges at the loop header
// (which dominates it) instead of the textbook post-dominator.
func TestVerifyAcceptsLoopHeaderReconv(t *testing.T) {
	// 0 (header) -> {1, exit}; 1 -> {0, 2}; 2 -> {0}. Block 1 diverges;
	// its IPDOM is 0 only through 2, and declaring Reconv=0 must pass
	// because 0 dominates 1 and both successors reach 0.
	k := &fakeKernel{
		blocks: []simt.BlockInfo{
			{Name: "header", Insts: 1, Reconv: 0},
			{Name: "body", Insts: 1, Reconv: 0},
			{Name: "tail", Insts: 1},
		},
		succs: [][]int{
			{1, simt.BlockExit},
			{0, 2},
			{0},
		},
	}
	if fs := Verify("loop", k, Caps{}); len(fs) != 0 {
		t.Fatalf("loop-header reconvergence rejected: %v", fs)
	}
}

func TestVerifyEntryOutOfRange(t *testing.T) {
	k := diamond()
	k.entry = 11
	f := findRule(Verify("fixture", k, Caps{}), RuleEntryRange)
	if f == nil {
		t.Fatal("expected an entry-range finding")
	}
}

func TestVerifyEmptyProgram(t *testing.T) {
	k := &fakeKernel{}
	f := findRule(Verify("fixture", k, Caps{}), RuleNoBlocks)
	if f == nil {
		t.Fatal("expected a no-blocks finding")
	}
}

func TestVerifyCapsServeGatedBlocks(t *testing.T) {
	k := diamond()
	k.blocks[0].Gated = true
	k.blocks[0].Tag = simt.TagCtrl
	if fs := Verify("fixture", k, Caps{Gate: true, CtrlTag: true}); len(fs) != 0 {
		t.Fatalf("capable architecture still rejected gated program: %v", fs)
	}
}

// TestExploreFlagsUndeclaredEdge drives a Step that branches to an
// edge the static CFG omits.
func TestExploreFlagsUndeclaredEdge(t *testing.T) {
	k := diamond()
	k.step = func(slot int32, block int, res *simt.StepResult) {
		switch block {
		case 0:
			res.Next = 3 // 0 -> 3 is not declared
		default:
			res.Next = simt.BlockExit
		}
	}
	fs, cov := Explore("fixture", k, ExploreConfig{})
	if f := findRule(fs, RuleEdgeUndeclared); f == nil {
		t.Fatalf("expected an edge-undeclared finding, got %v", fs)
	}
	if cov.Steps == 0 {
		t.Error("exploration made no steps")
	}
}

// TestExploreFlagsMemOverDeclared drives a Step that emits more memory
// accesses than the block declares.
func TestExploreFlagsMemOverDeclared(t *testing.T) {
	k := diamond()
	k.blocks[1].MemInsts = 1
	k.step = func(slot int32, block int, res *simt.StepResult) {
		if block == 1 {
			res.NMem = 2 // over the declared budget of 1
			res.Next = 3
			return
		}
		if len(k.succs[block]) > 0 {
			res.Next = k.succs[block][0]
		} else {
			res.Next = simt.BlockExit
		}
	}
	fs, _ := Explore("fixture", k, ExploreConfig{})
	f := findRule(fs, RuleMemOverflow)
	if f == nil {
		t.Fatalf("expected a mem-overflow finding, got %v", fs)
	}
	if !strings.Contains(f.Msg, "MemInsts") {
		t.Errorf("finding %q does not name the declared budget", f.Msg)
	}
}

// TestExploreFlagsRangeViolation drives a Step that jumps outside the
// block table.
func TestExploreFlagsRangeViolation(t *testing.T) {
	k := diamond()
	k.step = func(slot int32, block int, res *simt.StepResult) { res.Next = 42 }
	fs, _ := Explore("fixture", k, ExploreConfig{})
	if findRule(fs, RuleSuccRange) == nil {
		t.Fatalf("expected a succ-range finding, got %v", fs)
	}
}

func TestExploreCleanProgram(t *testing.T) {
	fs, cov := Explore("diamond", diamond(), ExploreConfig{})
	if len(fs) != 0 {
		t.Fatalf("clean program produced findings: %v", fs)
	}
	if cov.BlocksVisited == 0 || cov.EdgesObserved == 0 {
		t.Errorf("no coverage recorded: %+v", cov)
	}
}
