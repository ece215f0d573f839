package core

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/simt"
)

// idleRays is about modern-big's per-SMX load: its bounce-2 stream of
// 26 758 rays spread over 128 SMXs. With the default 58 warps most
// warps find no row of rays for the whole run and retry rdctrl every
// cycle, which is the regime the gate's shared stall memo and the GTO
// loop's held-gate charge are built for.
const idleRays = 200

// TestIdleWarpRegime pins the DRS machine in the idle-warp regime to
// exact counters, run whole and in 97-cycle RunFor slices (any slice
// length gives the same result). The numbers were recorded before the
// GTO age list, the shared unbound-warp memo and the held-gate charge
// existed; all three are host speed-ups only and must leave every
// counter unchanged.
func TestIdleWarpRegime(t *testing.T) {
	type want struct {
		cycles, warpInstrs, ctrlInstrs, ctrlStalls int64
		remaps, swaps, raysMoved, idealShuffles    int64
	}
	cases := []struct {
		name  string
		ideal bool
		want  want
	}{
		{"swap-engine", false, want{12376, 14112, 747, 576327, 125, 155, 1524, 0}},
		{"ideal", true, want{11947, 27438, 1560, 469086, 216, 0, 0, 95}},
	}
	for _, tc := range cases {
		for _, slice := range []int64{0, 97} {
			cfg := DefaultConfig()
			if tc.ideal {
				cfg.Ideal, cfg.SwapBuffers = true, 0
			}
			smx, ctrl, _, _, _ := buildDRS(t, cfg, idleRays)
			if smx.NumWarps() != 58 {
				t.Fatalf("%d warps, want the default 58", smx.NumWarps())
			}
			if slice == 0 {
				if _, err := smx.Run(); err != nil {
					t.Fatal(err)
				}
			} else {
				for smx.LiveWarps() > 0 {
					if err := smx.RunFor(slice); err != nil {
						t.Fatal(err)
					}
				}
			}
			st, cs := smx.Stats(), ctrl.Stats()
			got := want{st.Cycles, st.WarpInstrs, st.CtrlInstrs, st.CtrlStalls,
				cs.Remaps, cs.SwapsCompleted, cs.RaysMoved, cs.IdealShuffles}
			if got != tc.want {
				t.Errorf("%s, slice %d: got %+v, want %+v", tc.name, slice, got, tc.want)
			}
			if err := ctrl.CheckInvariants(); err != nil {
				t.Errorf("%s, slice %d: %v", tc.name, slice, err)
			}
		}
	}
}

// TestGatedLoopZeroAlloc is TestSteadyCycleLoopZeroAlloc for a
// DRS-gated SMX in the idle-warp regime: once warm, epochs of rdctrl
// retries, gate stalls, swaps or ideal regroups, and the GTO loop
// allocate nothing.
func TestGatedLoopZeroAlloc(t *testing.T) {
	for _, ideal := range []bool{false, true} {
		cfg := DefaultConfig()
		if ideal {
			cfg.Ideal, cfg.SwapBuffers = true, 0
		}
		smx, ctrl, _, _, _ := buildDRS(t, cfg, idleRays)
		epoch := func() {
			if err := smx.RunFor(64); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			epoch()
		}
		before, cs := smx.Stats().CtrlStalls, ctrl.Stats()
		if avg := testing.AllocsPerRun(20, epoch); avg != 0 {
			t.Errorf("ideal %v: gated cycle loop allocates: %.1f allocs per 64-cycle epoch (want 0)", ideal, avg)
		}
		if smx.LiveWarps() == 0 || smx.Stats().CtrlStalls == before {
			t.Fatalf("ideal %v: the measurement did not run the gated retry loop", ideal)
		}
		if after := ctrl.Stats(); ideal && after.IdealShuffles == cs.IdealShuffles ||
			!ideal && after.SwapsStarted == cs.SwapsStarted {
			t.Fatalf("ideal %v: the measurement moved no rays (%+v)", ideal, after)
		}
	}
}

// unsettledIdeal builds the one state the shared unbound-warp memo must
// not record: an ideal regroup that cannot pad every state onto fresh
// rows leaves a mixed free row, so the next unbound warp's gate
// regroups again instead of doing nothing. With the default bind
// threshold that needs three free rows or fewer, too few for two
// unbound warps; a threshold above the row width reaches it with four.
// Free rows 0, 1, 4, 5 hold 1 inner, 1 leaf and 95 fetch rays and
// regroup into [inner], [leaf + 31 fetch], [32 fetch], [32 fetch]; no
// row is bindable, so both unbound warps (0 and 1) stall, and each gate
// regroups. wrap wraps the control's engine hooks (nil: unwrapped).
func unsettledIdeal(t *testing.T, wrap func(*Control, simt.Hooks) simt.Hooks) (*simt.SMX, *Control) {
	cfg := DefaultConfig()
	cfg.BackupRows, cfg.WarpsOverride, cfg.BindThreshold = 0, 4, 33
	cfg.Ideal, cfg.SwapBuffers = true, 0
	smx, c, k, _, _ := buildDRSHooks(t, cfg, 128, wrap)
	// Slot 0 fetches a ray and stays inner; slot 1 fetches one and
	// traverses to its first leaf.
	var res simt.StepResult
	k.Step(0, kernels.WiFetch, &res)
	k.Step(1, kernels.WiFetch, &res)
	for k.StateOf(1) == kernels.StateInner {
		k.Step(1, kernels.WiInner, &res)
	}
	if k.StateOf(0) != kernels.StateInner || k.StateOf(1) != kernels.StateLeaf {
		t.Fatalf("slot states %v, %v; want inner, leaf", k.StateOf(0), k.StateOf(1))
	}
	// Rows in order 0, 1, 4, 5 (free), 2, 3 (bound to warps 2 and 3);
	// slots fill them in turn, 97 free and 31 bound.
	fill := []struct{ row, n int }{{0, 32}, {1, 32}, {4, 32}, {5, 1}, {2, 16}, {3, 15}}
	slot := int32(0)
	for r := range c.rows {
		for l := range c.rows[r] {
			c.rows[r][l] = -1
		}
		c.rowCounts[r] = [4]int{}
	}
	for _, f := range fill {
		for l := 0; l < f.n; l++ {
			c.rows[f.row][l] = slot
			c.slotRow[slot] = int32(f.row)
			c.rowCounts[f.row][k.StateOf(slot)]++
			slot++
		}
	}
	c.warpRow = []int{-1, -1, 2, 3}
	c.rowWarp = []int{-1, -1, 2, 3, -1, -1}
	c.bound = 2
	for r := range c.rows {
		c.refreshRow(r)
	}
	c.version++
	return smx, c
}

// TestUnsettledIdealStallNotShared covers the unsettledIdeal state:
// each unbound warp's gate regroups, as it did before the shared memo
// existed, and GateHolds reports false after each such stall.
func TestUnsettledIdealStallNotShared(t *testing.T) {
	smx, c := unsettledIdeal(t, nil)
	for i, warp := range []int{0, 1} {
		if got := c.gate(smx, warp, 1); got != simt.GateStall {
			t.Fatalf("warp %d: gate = %v, want a stall", warp, got)
		}
		if want := int64(i + 1); c.stats.IdealShuffles != want || !c.rowMixed[1] {
			t.Fatalf("after warp %d: %d regroups, row 1 mixed %v; want %d regroups leaving row 1 mixed",
				warp, c.stats.IdealShuffles, c.rowMixed[1], want)
		}
		if c.gateHolds() {
			t.Fatalf("after warp %d: GateHolds is true after an unsettled regroup", warp)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIdealLoneRaysDoNotLivelock covers the state that stalled every
// warp of the ideal machine for good: the pool is empty and the last
// eight rays, all at a leaf, sit alone in eight uniform rows, one of
// them bound to warp 0. No row reaches the bind threshold and each can
// still grow, so the gate unbinds warp 0 and used to wait on the
// fullest free row; the regroup leaves uniform rows alone, there are no
// collectors, and no bound warp was left to change anything. With no
// warp holding a row, the gate hands out the fullest row as it is, and
// the machine drains.
func TestIdealLoneRaysDoNotLivelock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtraBank, cfg.Ideal, cfg.SwapBuffers = true, true, 0
	const lone = 8
	smx, c, k, pool, _ := buildDRS(t, cfg, lone)
	var res simt.StepResult
	for s := int32(0); s < int32(k.NumSlots()); s++ {
		k.Step(s, kernels.WiFetch, &res)
		for s < lone && k.StateOf(s) == kernels.StateInner {
			k.Step(s, kernels.WiInner, &res)
		}
		want := kernels.StateEmpty
		if s < lone {
			want = kernels.StateLeaf
		}
		if k.StateOf(s) != want {
			t.Fatalf("slot %d in state %v, want %v", s, k.StateOf(s), want)
		}
	}
	if pool.Remaining() != 0 {
		t.Fatalf("%d rays left in the pool", pool.Remaining())
	}
	// Ray i alone in lane 0 of row i, the empty slots after them.
	ws := cfg.warpSize()
	next := int32(lone)
	for r := range c.rows {
		c.rowCounts[r] = [4]int{}
		for l := range c.rows[r] {
			s := int32(-1)
			switch {
			case r < lone && l == 0:
				s = int32(r)
			case int(next) < k.NumSlots() && r < len(c.rows)-2:
				s = next
				next++
			}
			c.rows[r][l] = s
			if s >= 0 {
				c.slotRow[s] = int32(r)
				c.rowCounts[r][k.StateOf(s)]++
			}
		}
		c.rowWarp[r] = -1
	}
	if int(next) != k.NumSlots() {
		t.Fatalf("placed %d of %d slots in rows of %d", next, k.NumSlots(), ws)
	}
	for w := range c.warpRow {
		c.warpRow[w] = -1
	}
	c.warpRow[0], c.rowWarp[0], c.bound = 0, 0, 1
	for r := range c.rows {
		c.refreshRow(r)
	}
	c.version++
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.gate(smx, 0, 1); got != simt.GateProceed || c.warpRow[0] < 0 {
		t.Fatalf("warp 0's gate returned %v bound to row %d; want it to proceed on a lone ray's row", got, c.warpRow[0])
	}
	if err := smx.RunFor(1 << 16); err != nil {
		t.Fatal(err)
	}
	if smx.LiveWarps() != 0 {
		t.Fatalf("%d warps still live after %d cycles", smx.LiveWarps(), smx.Stats().Cycles)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
