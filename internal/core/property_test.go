package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/simt"
)

// The control's structural invariants (each live slot in exactly one
// cell, renaming bijective, busy counts sane) must hold at every point
// during a run, not just at the end. Drive the machine in slices and
// check between them.
func TestInvariantsHoldThroughoutRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarpsOverride = 6
	smx, ctrl, _, pool, _ := buildDRS(t, cfg, 2500)
	for i := 0; i < 10_000; i++ {
		if err := smx.RunFor(97); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.CheckInvariants(); err != nil {
			t.Fatalf("after slice %d (cycle %d): %v", i, smx.Cycle(), err)
		}
		if smx.LiveWarps() == 0 {
			break
		}
	}
	if smx.LiveWarps() != 0 {
		t.Fatalf("machine did not finish")
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained")
	}
}

// gateHoldsChecker wraps a control's engine hooks to check the
// GateHolds contract after every gate call and every tick: whenever the
// hook reports true, the gate call of every warp whose last call
// stalled stalls again and changes nothing — not the version, the
// bindings or Stats. It also requires the hook to report false after a
// stall that leaves a free row mixed: there a repeat Ideal-mode gate
// would regroup again.
type gateHoldsChecker struct {
	t       *testing.T
	c       *Control
	gate    func(s *simt.SMX, warp int, now int64) simt.GateResult
	stalled []bool

	checks, calls, unsettled int
}

func (g *gateHoldsChecker) wrap(c *Control, h simt.Hooks) simt.Hooks {
	g.c, g.stalled = c, make([]bool, len(c.warpRow))
	gate, tick := h.Gate, h.Tick
	h.Gate = func(s *simt.SMX, w int, now int64) simt.GateResult {
		r := gate(s, w, now)
		g.stalled[w] = r == simt.GateStall
		if r == simt.GateStall && c.cfg.Ideal && c.freeRowMixed() {
			g.unsettled++
			if c.gateHolds() {
				g.t.Fatalf("cycle %d: GateHolds is true after an unsettled regroup", now)
			}
		}
		g.check(s, now)
		return r
	}
	h.Tick = func(s *simt.SMX, now int64) {
		tick(s, now)
		g.check(s, now)
	}
	g.gate = h.Gate
	return h
}

func (g *gateHoldsChecker) check(s *simt.SMX, now int64) {
	c := g.c
	if !c.gateHolds() {
		return
	}
	g.checks++
	version, stats := c.version, c.stats
	warpRow := slices.Clone(c.warpRow)
	rowWarp := slices.Clone(c.rowWarp)
	for w, stalled := range g.stalled {
		if !stalled {
			continue
		}
		g.calls++
		if got := c.gate(s, w, now); got != simt.GateStall {
			g.t.Fatalf("cycle %d: GateHolds is true, but warp %d's gate returns %v", now, w, got)
		}
	}
	if c.version != version || c.stats != stats ||
		!slices.Equal(c.warpRow, warpRow) || !slices.Equal(c.rowWarp, rowWarp) {
		g.t.Fatalf("cycle %d: gate calls under GateHolds changed the control", now)
	}
}

// TestGateHoldsContract runs gateHoldsChecker through whole runs with
// the swap engine and in Ideal mode, through a bounded Ideal run with
// a bind threshold above the row width (no row is ever bindable while
// another free row could grow it, so the run never ends), and through
// the unsettledIdeal state, where that threshold leaves regroups
// unsettled.
func TestGateHoldsContract(t *testing.T) {
	cases := []struct {
		name   string
		set    func(*Config)
		cycles int64 // 0: run to completion
	}{
		{"swap-engine", func(c *Config) {}, 0},
		{"ideal", func(c *Config) { c.Ideal, c.SwapBuffers = true, 0 }, 0},
		{"ideal-threshold-above-row", func(c *Config) { c.Ideal, c.SwapBuffers, c.BindThreshold = true, 0, 33 }, 20000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.WarpsOverride = 6
			tc.set(&cfg)
			g := &gateHoldsChecker{t: t}
			smx, ctrl, _, _, _ := buildDRSHooks(t, cfg, 1500, g.wrap)
			var err error
			if tc.cycles == 0 {
				_, err = smx.Run()
			} else {
				err = smx.RunFor(tc.cycles)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := ctrl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if g.checks < 1000 || g.calls < 1000 {
				t.Fatalf("weak mix: %d checks, %d gate calls under GateHolds", g.checks, g.calls)
			}
		})
	}
	t.Run("unsettled", func(t *testing.T) {
		g := &gateHoldsChecker{t: t}
		smx, _ := unsettledIdeal(t, g.wrap)
		for now := int64(1); now <= 20; now++ {
			g.gate(smx, int(now%2), now)
		}
		if g.unsettled != 20 {
			t.Fatalf("%d of 20 stalls left a free row mixed", g.unsettled)
		}
	})
}

// Row count bookkeeping must agree with a full recount at any moment.
func TestCountsMatchRecount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarpsOverride = 6
	smx, ctrl, k, _, _ := buildDRS(t, cfg, 2000)
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		if err := smx.RunFor(int64(50 + rnd.Intn(400))); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ctrl.RowCount(); r++ {
			var recount [4]int
			for _, slot := range ctrl.RowSlots(r) {
				recount[k.StateOf(slot)]++
			}
			// Empty cells report StateEmpty via StateOf(-1); separate
			// them from drained slots by counting only real slots.
			var realEmpty int
			for _, slot := range ctrl.RowSlots(r) {
				if slot >= 0 && k.StateOf(slot) == kernels.StateEmpty {
					realEmpty++
				}
			}
			counts := ctrl.rowCounts[r]
			if counts[kernels.StateFetch] != recount[kernels.StateFetch] ||
				counts[kernels.StateInner] != recount[kernels.StateInner] ||
				counts[kernels.StateLeaf] != recount[kernels.StateLeaf] {
				t.Fatalf("row %d counts %v, recount %v (cycle %d)", r, counts, recount, smx.Cycle())
			}
			if counts[kernels.StateEmpty] < realEmpty {
				// Dropped drained slots may make the counter smaller,
				// never larger.
				t.Fatalf("row %d empty counter %d < real %d", r, counts[kernels.StateEmpty], realEmpty)
			}
		}
		if smx.LiveWarps() == 0 {
			break
		}
	}
}

// The mixed-row tracker must agree with a recount.
func TestMixedTrackerConsistent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarpsOverride = 6
	smx, ctrl, _, _, _ := buildDRS(t, cfg, 1500)
	for i := 0; i < 40; i++ {
		if err := smx.RunFor(211); err != nil {
			t.Fatal(err)
		}
		recount := 0
		for r := 0; r < ctrl.RowCount(); r++ {
			_, uniform, _ := ctrl.rowState(r)
			if !uniform {
				recount++
				if !ctrl.rowMixed[r] {
					t.Fatalf("row %d mixed but not flagged", r)
				}
			} else if ctrl.rowMixed[r] {
				t.Fatalf("row %d flagged mixed but uniform", r)
			}
		}
		if recount != ctrl.numMixed {
			t.Fatalf("numMixed %d, recount %d", ctrl.numMixed, recount)
		}
		if smx.LiveWarps() == 0 {
			break
		}
	}
}

// Warps bound to rows must always execute rays whose states were
// uniform at bind time; the gate must never bind a busy row.
func TestGateNeverBindsBusyRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarpsOverride = 6
	smx, ctrl, _, _, _ := buildDRS(t, cfg, 1500)
	for i := 0; i < 50; i++ {
		if err := smx.RunFor(173); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < smx.NumWarps(); w++ {
			r := ctrl.WarpRow(w)
			if r < 0 {
				continue
			}
			for i2 := range ctrl.roles {
				op := ctrl.roles[i2].op
				if op != nil && (op.srcRow == r || op.dstRow == r) {
					t.Fatalf("row %d bound to warp %d while role %s swaps it", r, w, ctrl.roles[i2].name)
				}
			}
		}
		if smx.LiveWarps() == 0 {
			break
		}
	}
}

// Ideal mode must also maintain invariants throughout.
func TestIdealInvariantsThroughout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarpsOverride = 6
	cfg.Ideal = true
	smx, ctrl, _, _, _ := buildDRS(t, cfg, 1500)
	for i := 0; i < 100; i++ {
		if err := smx.RunFor(137); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", smx.Cycle(), err)
		}
		if smx.LiveWarps() == 0 {
			break
		}
	}
}
