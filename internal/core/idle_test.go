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
// scheduler's resumable walk are built for.
const idleRays = 200

// TestIdleWarpRegime pins the DRS machine in the idle-warp regime to
// exact counters, run whole and in 97-cycle RunFor slices (any slice
// length gives the same result). The numbers were recorded before the
// GTO age list and the shared unbound-warp memo existed; both are host
// speed-ups only and must leave every counter unchanged.
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
// retries, gate stalls, swaps and the GTO walk allocate nothing.
func TestGatedLoopZeroAlloc(t *testing.T) {
	smx, _, _, _, _ := buildDRS(t, DefaultConfig(), idleRays)
	epoch := func() {
		if err := smx.RunFor(64); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		epoch()
	}
	before := smx.Stats().CtrlStalls
	if avg := testing.AllocsPerRun(20, epoch); avg != 0 {
		t.Errorf("gated cycle loop allocates: %.1f allocs per 64-cycle epoch (want 0)", avg)
	}
	if smx.LiveWarps() == 0 || smx.Stats().CtrlStalls == before {
		t.Fatal("the measurement did not run the gated retry loop")
	}
}

// TestUnsettledIdealStallNotShared covers the one stall the shared
// unbound-warp memo must not record: an ideal regroup that cannot pad
// every state onto fresh rows leaves a mixed free row, so the next
// unbound warp's gate regroups again instead of doing nothing. With
// the default bind threshold that needs three free rows or fewer, too
// few for two unbound warps; a threshold above the row width reaches
// it with four. Free rows 0, 1, 4, 5 hold 1 inner, 1 leaf and 95 fetch
// rays and regroup into [inner], [leaf + 31 fetch], [32 fetch],
// [32 fetch]; no row is bindable, so both unbound warps stall, and each
// gate regroups, as it did before the shared memo existed.
func TestUnsettledIdealStallNotShared(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackupRows, cfg.WarpsOverride, cfg.BindThreshold = 0, 4, 33
	cfg.Ideal, cfg.SwapBuffers = true, 0
	smx, c, k, _, _ := buildDRS(t, cfg, 128)
	k.Ctx(0).State = kernels.StateInner
	k.Ctx(1).State = kernels.StateLeaf
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
	for r := range c.rows {
		c.refreshMixed(r)
	}
	c.version++

	for i, warp := range []int{0, 1} {
		if got := c.gate(smx, warp, 1); got != simt.GateStall {
			t.Fatalf("warp %d: gate = %v, want a stall", warp, got)
		}
		if want := int64(i + 1); c.stats.IdealShuffles != want || !c.rowMixed[1] {
			t.Fatalf("after warp %d: %d regroups, row 1 mixed %v; want %d regroups leaving row 1 mixed",
				warp, c.stats.IdealShuffles, c.rowMixed[1], want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
