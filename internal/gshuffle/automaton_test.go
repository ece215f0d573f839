package gshuffle

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/rng"
	"repro/internal/simt"
)

// tinyAutomaton builds an automaton whose task table the test controls
// directly: phases and budgets set by hand, rngs seeded deterministically.
func tinyAutomaton(tasks []autoTask) *Automaton {
	cfg := DefaultConfig()
	a := NewAutomaton(cfg, 1)
	// Only the hand-built prefix is live; everything else is finished.
	for i := range a.tasks {
		a.tasks[i] = autoTask{phase: -1, rng: a.tasks[i].rng}
	}
	copy(a.tasks, tasks)
	a.left = 0
	for _, t := range a.tasks {
		if t.phase >= 0 {
			a.left++
		}
	}
	a.retired = 0
	return a
}

// TestAutomatonDispatchRouting: the gated dispatch block routes each
// phase to its body block and finished tasks to exit.
func TestAutomatonDispatchRouting(t *testing.T) {
	cases := []struct {
		name  string
		phase int
		want  int
	}{
		{"phase 0 to advance", 0, abAdvance},
		{"phase 1 to interact", 1, abInteract},
		{"phase 2 to settle", 2, abSettle},
		{"done to exit", -1, simt.BlockExit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tinyAutomaton([]autoTask{{
				phase: tc.phase, budget: [3]int{1, 1, 1}, rng: rng.NewPCG32(7, 7),
			}})
			var res simt.StepResult
			a.Step(0, abDispatch, &res)
			if res.Next != tc.want {
				t.Fatalf("dispatch(phase %d) -> block %d, want %d", tc.phase, res.Next, tc.want)
			}
			if got := a.PhaseOf(0); got != tc.phase {
				t.Fatalf("dispatch mutated phase: %d", got)
			}
		})
	}
}

// TestAutomatonBodyTransitions: each body block consumes budget and
// transitions the state machine on exhaustion; transitions notify the
// listener with the correct old/new pair.
func TestAutomatonBodyTransitions(t *testing.T) {
	cases := []struct {
		name      string
		phase     int
		block     int
		budget    [3]int
		wantPhase int
		wantOld   int // listener old phase; -2 = no event expected
	}{
		{"advance with budget left stays", 0, abAdvance, [3]int{2, 1, 1}, 0, -2},
		{"advance exhausted moves to interact", 0, abAdvance, [3]int{1, 1, 1}, 1, 0},
		{"interact with budget left stays", 1, abInteract, [3]int{0, 3, 1}, 1, -2},
		{"interact exhausted moves to settle", 1, abInteract, [3]int{0, 1, 1}, 2, 1},
		{"settle with budget left stays", 2, abSettle, [3]int{0, 0, 2}, 2, -2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tinyAutomaton([]autoTask{{
				phase: tc.phase, budget: tc.budget, rng: rng.NewPCG32(7, 7),
			}})
			gotOld, events := -2, 0
			a.SetListener(func(slot int32, old, new int) {
				if slot != 0 {
					t.Fatalf("listener slot %d", slot)
				}
				gotOld, events = old, events+1
			})
			var res simt.StepResult
			a.Step(0, tc.block, &res)
			if res.Next != abDispatch {
				t.Fatalf("body block must return to dispatch, got %d", res.Next)
			}
			if got := a.PhaseOf(0); got != tc.wantPhase {
				t.Fatalf("phase = %d, want %d", got, tc.wantPhase)
			}
			if tc.wantOld == -2 {
				if events != 0 {
					t.Fatalf("unexpected transition event (old=%d)", gotOld)
				}
			} else if events != 1 || gotOld != tc.wantOld {
				t.Fatalf("events=%d old=%d, want 1 event from old %d", events, gotOld, tc.wantOld)
			}
		})
	}
}

// TestAutomatonSettleOutcome: exhausting settle either retires the task
// or restarts it at advance with fresh in-range budgets — which one is
// decided by the task's own deterministic rng, so the test predicts the
// branch with an identically-seeded twin.
func TestAutomatonSettleOutcome(t *testing.T) {
	retired, restarted := false, false
	for stream := uint64(0); stream < 32 && !(retired && restarted); stream++ {
		twin := rng.NewPCG32(99, stream)
		wantRetire := twin.IntN(3) == 0
		a := tinyAutomaton([]autoTask{{
			phase: 2, budget: [3]int{0, 0, 1}, rng: rng.NewPCG32(99, stream),
		}})
		var res simt.StepResult
		a.Step(0, abSettle, &res)
		if res.Next != abDispatch {
			t.Fatalf("settle must return to dispatch, got %d", res.Next)
		}
		if wantRetire {
			retired = true
			if a.PhaseOf(0) != -1 {
				t.Fatalf("stream %d: rng chose retirement but phase = %d", stream, a.PhaseOf(0))
			}
			if a.retired != 1 || a.WorkLeft() {
				t.Fatalf("stream %d: retirement bookkeeping: retired=%d left=%v", stream, a.retired, a.WorkLeft())
			}
		} else {
			restarted = true
			if a.PhaseOf(0) != 0 {
				t.Fatalf("stream %d: rng chose restart but phase = %d", stream, a.PhaseOf(0))
			}
			b := a.tasks[0].budget
			if b[0] < 1 || b[0] > 6 || b[1] < 1 || b[1] > 4 || b[2] < 1 || b[2] > 3 {
				t.Fatalf("stream %d: restart budgets out of range: %v", stream, b)
			}
			if a.retired != 0 || !a.WorkLeft() {
				t.Fatalf("stream %d: restart bookkeeping: retired=%d left=%v", stream, a.retired, a.WorkLeft())
			}
		}
	}
	if !retired || !restarted {
		t.Fatalf("32 streams never exercised both settle outcomes (retired=%v restarted=%v)", retired, restarted)
	}
}

func TestAutomatonEdges(t *testing.T) {
	a := NewAutomaton(DefaultConfig(), 3)
	if got := a.PhaseOf(-1); got != -1 {
		t.Fatalf("PhaseOf(-1) = %d", got)
	}
	if a.Entry() != abDispatch || a.Phases() != 3 {
		t.Fatalf("entry/phases: %d/%d", a.Entry(), a.Phases())
	}
	// Spare-row slots start finished and never count as work.
	live := DefaultConfig().Warps * DefaultConfig().WarpSize
	if got := a.PhaseOf(int32(live)); got != -1 {
		t.Fatalf("spare slot starts in phase %d, want done", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad block id did not panic")
		}
	}()
	var res simt.StepResult
	a.Step(0, 99, &res)
}

// TestAutomatonMappingsNeverReferenceInactiveLanes is the property test
// over the full shuffled run: every warp mapping the control emits
// (launch and every gate re-bind) must reference only live tasks —
// never a finished task or an empty cell presented as live — must keep
// the mapped lanes phase-uniform (the release contract masks minority
// lanes off rather than running them), and must never map one task
// into two lanes. The automaton's data-dependent transitions drive the
// row state, so this sweeps the state space a hand-built table cannot.
func TestAutomatonMappingsNeverReferenceInactiveLanes(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		for _, frac := range []float64{1.0, 0.75, 0.5} {
			cfg := DefaultConfig()
			cfg.ReleaseFraction = frac
			a := NewAutomaton(cfg, seed)
			ctrl, err := NewControl(cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			inner := ctrl.Hooks()
			violations := 0
			checkWarp := func(s *simt.SMX, warp int) {
				slots := s.Warp(warp).Slots()
				phase := -1
				seen := make(map[int32]bool, len(slots))
				for _, slot := range slots {
					if slot < 0 {
						continue // masked lane: legal
					}
					if seen[slot] {
						violations++
						t.Errorf("seed %d frac %v: warp %d maps slot %d twice", seed, frac, warp, slot)
					}
					seen[slot] = true
					p := a.PhaseOf(slot)
					if p < 0 {
						violations++
						t.Errorf("seed %d frac %v: warp %d mapping references inactive slot %d", seed, frac, warp, slot)
					} else if phase == -1 {
						phase = p
					} else if p != phase {
						violations++
						t.Errorf("seed %d frac %v: warp %d mixes phases %d and %d", seed, frac, warp, phase, p)
					}
				}
			}
			hooks := simt.Hooks{
				Gate: func(s *simt.SMX, warp int, now int64) simt.GateResult {
					res := inner.Gate(s, warp, now)
					if res == simt.GateProceed && violations < 8 {
						checkWarp(s, warp)
					}
					return res
				},
				Tick: inner.Tick,
			}
			scfg := simt.DefaultConfig()
			scfg.NumSMX = 1
			scfg.MaxWarpsPerSMX = cfg.Warps
			scfg.WarpSize = cfg.WarpSize
			scfg.MaxCycles = 1 << 24
			smx, err := simt.NewSMX(0, scfg, a, hooks, memsys.NewOrderedL2(scfg.Mem, 1))
			if err != nil {
				t.Fatal(err)
			}
			ctrl.Launch(smx)
			for w := 0; w < cfg.Warps; w++ {
				checkWarp(smx, w) // the launch mappings obey the same contract
			}
			if _, err := smx.Run(); err != nil {
				t.Fatal(err)
			}
			if a.WorkLeft() || a.retired != cfg.Warps*cfg.WarpSize {
				t.Fatalf("seed %d frac %v: run left work behind: retired %d of %d",
					seed, frac, a.retired, cfg.Warps*cfg.WarpSize)
			}
		}
	}
}
