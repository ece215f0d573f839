package progcheck

import (
	"reflect"
	"testing"

	"repro/internal/simt"
)

// fuzzKernel is a kernel program decoded from fuzz bytes: an arbitrary
// (usually malformed) block table and declared CFG. Verify never calls
// Step, so the semantics are empty.
type fuzzKernel struct {
	blocks []simt.BlockInfo
	succs  [][]int
	entry  int
}

func (k *fuzzKernel) Blocks() []simt.BlockInfo                         { return k.blocks }
func (k *fuzzKernel) Entry() int                                       { return k.entry }
func (k *fuzzKernel) Step(slot int32, block int, res *simt.StepResult) {}
func (k *fuzzKernel) Successors(block int) []int                       { return k.succs[block] }

// decodeKernel builds a bounded fuzz kernel: up to 12 blocks, each with
// instruction counts, memory budgets, reconvergence points, gating and
// tags drawn from ranges that straddle every validity boundary, and up
// to 3 declared successors per block (including out-of-range ids and
// BlockExit).
func decodeKernel(data []byte) *fuzzKernel {
	if len(data) == 0 {
		return &fuzzKernel{entry: 0}
	}
	n := int(data[0]) % 13 // 0..12 blocks; 0 exercises RuleNoBlocks
	data = data[1:]
	k := &fuzzKernel{
		blocks: make([]simt.BlockInfo, n),
		succs:  make([][]int, n),
	}
	take := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for b := 0; b < n; b++ {
		k.blocks[b] = simt.BlockInfo{
			Insts:    int(take()%6) - 1,         // -1..4
			MemInsts: int(take()%8) - 1,         // -1..6 (budget is 4)
			SrcOps:   int(take()%12) - 1,        // -1..10 (bound is 8)
			Reconv:   int(take()%byte(n+3)) - 2, // -2..n
			Gated:    take()&1 == 1,
			Tag:      simt.Tag(take() % 4),
		}
		ns := int(take()) % 4 // 0..3 successors; 0 exercises RuleNoSucc
		for s := 0; s < ns; s++ {
			// -2..n+1: BlockExit (-1), valid ids, and out-of-range on both
			// sides.
			k.succs[b] = append(k.succs[b], int(take()%byte(n+4))-2)
		}
	}
	k.entry = int(take()%byte(n+3)) - 1 // -1..n+1
	return k
}

// FuzzVerify drives the static kernel verifier with arbitrary block
// tables and CFGs. The verifier's contract: never panic or hang on any
// program (it runs on hand-authored tables before the engine trusts
// them), findings sorted by block with ids in [-1, numBlocks), stable
// across calls, and monotone in capabilities (granting an architecture
// capability can only remove findings, never add them).
func FuzzVerify(f *testing.F) {
	f.Add([]byte{0})                            // no blocks
	f.Add([]byte{1, 2, 1, 2, 2, 0, 0, 1, 0, 0}) // single self-loop block
	// Well-formed diamond: 0 -> {1,2} -> 3 -> exit, reconverging at 3.
	f.Add([]byte{4,
		2, 1, 2, 5, 0, 0, 2, 2, 3, // block 0: succs 1,2 (values are +2-biased)
		2, 0, 2, 5, 0, 0, 1, 5, // block 1: succ 3
		2, 0, 2, 5, 0, 0, 1, 5, // block 2: succ 3
		2, 0, 2, 5, 0, 0, 1, 1, // block 3: succ exit
		1})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		k := decodeKernel(data)
		fs := Verify("fuzz", k, Caps{})

		for i, fd := range fs {
			if fd.Block < -1 || fd.Block >= len(k.blocks) {
				t.Fatalf("finding %d: block id %d out of range [-1,%d)", i, fd.Block, len(k.blocks))
			}
			if i > 0 && fs[i-1].Block > fd.Block {
				t.Fatalf("findings not sorted by block: %d after %d", fd.Block, fs[i-1].Block)
			}
			if fd.Msg == "" || fd.Rule == "" {
				t.Fatalf("finding %d has empty rule or message: %+v", i, fd)
			}
		}

		again := Verify("fuzz", k, Caps{})
		if !reflect.DeepEqual(fs, again) {
			t.Fatalf("verifier not deterministic: %v vs %v", fs, again)
		}

		// Capabilities only relax checks: every finding under full caps
		// must also be reported under zero caps.
		full := Verify("fuzz", k, Caps{Gate: true, CtrlTag: true})
		if len(full) > len(fs) {
			t.Fatalf("granting capabilities added findings: %d with caps vs %d without", len(full), len(fs))
		}
		for _, fd := range full {
			if fd.Rule == RuleGateUnserved || fd.Rule == RuleTagUnserved {
				t.Fatalf("capability-dependent finding survived full caps: %+v", fd)
			}
		}
	})
}
