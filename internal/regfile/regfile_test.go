package regfile

import "testing"

func TestConfigSize(t *testing.T) {
	cfg := DefaultConfig()
	if kb := cfg.RegsPerSMX * 4 / 1024; kb != 256 {
		t.Errorf("GTX780 RF size = %dKB, want 256", kb)
	}
}

func TestNewValidatesBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for 0 banks")
		}
	}()
	New(Config{NumBanks: 0})
}

func TestCollectOperandsCountsAccesses(t *testing.T) {
	f := New(DefaultConfig())
	f.CollectOperands(1, 0, 4, 3)
	st := f.Stats()
	if st.OperandReads != 3 || st.OperandWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCollectOperandsNoConflictAdjacentRegs(t *testing.T) {
	f := New(DefaultConfig())
	// Three adjacent registers land in three different banks.
	if c := f.CollectOperands(1, 0, 0, 3); c != 0 {
		t.Errorf("adjacent regs conflicted: %d", c)
	}
}

func TestCollectOperandsConflictSameBank(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBanks = 2
	f := New(cfg)
	// With 2 banks, regs 0 and 2 share bank 0: one conflict.
	if c := f.CollectOperands(1, 0, 0, 3); c != 1 {
		t.Errorf("conflicts = %d, want 1", c)
	}
	if f.Stats().BankConflictCycles != 1 {
		t.Errorf("conflict cycles = %d", f.Stats().BankConflictCycles)
	}
}

func TestRowStaggerChangesBanks(t *testing.T) {
	f := New(DefaultConfig())
	if f.bankOf(0, 5) == f.bankOf(1, 5) {
		t.Errorf("rows not staggered across banks")
	}
}

func TestShuffleTransferBlockedByOperands(t *testing.T) {
	cfg := DefaultConfig()
	f := New(cfg)
	// Instruction occupies banks for reg 0..2 on row 0 at cycle 5.
	f.CollectOperands(5, 0, 0, 3)
	// A transfer of reg 0 between rows 0 and 7 needs bank(0,0) which is busy.
	if f.TryShuffleTransfer(5, 0, 7, 0) {
		t.Errorf("transfer should be blocked at cycle 5")
	}
	if f.Stats().ShuffleRetryCycles != 1 {
		t.Errorf("retry cycles = %d", f.Stats().ShuffleRetryCycles)
	}
	// Next cycle the banks are free.
	if !f.TryShuffleTransfer(6, 0, 7, 0) {
		t.Errorf("transfer should succeed at cycle 6")
	}
	st := f.Stats()
	if st.ShuffleReads != 1 || st.ShuffleWrites != 1 {
		t.Errorf("shuffle access counts = %+v", st)
	}
}

func TestShuffleTransfersConflictWithEachOther(t *testing.T) {
	f := New(DefaultConfig())
	if !f.TryShuffleTransfer(3, 0, 1, 0) {
		t.Fatalf("first transfer failed")
	}
	// Same source bank (row 0, reg 0) again in the same cycle: blocked.
	if f.TryShuffleTransfer(3, 0, 2, 0) {
		t.Errorf("conflicting transfer succeeded")
	}
}

func TestAdvanceReleasesReservations(t *testing.T) {
	f := New(DefaultConfig())
	f.CollectOperands(1, 0, 0, 3)
	f.Advance(100)
	if !f.TryShuffleTransfer(100, 0, 1, 0) {
		t.Errorf("reservation persisted after Advance")
	}
	// Advance backwards is a no-op.
	f.Advance(50)
	if f.current != 100 {
		t.Errorf("Advance moved backwards: %d", f.current)
	}
}

func TestShuffleShare(t *testing.T) {
	f := New(DefaultConfig())
	for i := int64(0); i < 10; i++ {
		f.CollectOperands(i, 0, 0, 3) // 4 accesses each
	}
	for i := int64(10); i < 15; i++ {
		if !f.TryShuffleTransfer(i, 0, 1, 0) { // 2 accesses each
			t.Fatalf("transfer failed at %d", i)
		}
	}
	share := f.Stats().ShuffleShare()
	want := 10.0 / 50.0
	if share < want-1e-9 || share > want+1e-9 {
		t.Errorf("shuffle share = %v, want %v", share, want)
	}
	var empty Stats
	if empty.ShuffleShare() != 0 {
		t.Errorf("empty share nonzero")
	}
}
