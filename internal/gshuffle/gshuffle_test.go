package gshuffle

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/simt"
)

func runAutomaton(t testing.TB, cfg Config, shuffle bool, seed uint64) (simt.Stats, *Automaton, *Control) {
	t.Helper()
	a := NewAutomaton(cfg, seed)
	scfg := simt.DefaultConfig()
	scfg.NumSMX = 1
	scfg.MaxWarpsPerSMX = cfg.Warps
	scfg.WarpSize = cfg.WarpSize
	scfg.MaxCycles = 1 << 24
	l2 := memsys.NewOrderedL2(scfg.Mem, 1)

	var ctrl *Control
	hooks := simt.Hooks{}
	if shuffle {
		var err error
		ctrl, err = NewControl(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		hooks = ctrl.Hooks()
	} else {
		// Unshuffled baseline: pass the gate through unconditionally so
		// the same kernel runs with fixed warp-to-row mapping.
		hooks = simt.Hooks{
			Gate: func(s *simt.SMX, warp int, now int64) simt.GateResult {
				if !a.WorkLeft() {
					return simt.GateExit
				}
				return simt.GateProceed
			},
		}
	}
	smx, err := simt.NewSMX(0, scfg, a, hooks, l2)
	if err != nil {
		t.Fatal(err)
	}
	if shuffle {
		ctrl.Launch(smx)
	} else {
		smx.LaunchAll(0)
	}
	st, err := smx.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, a, ctrl
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rows: 12, Warps: 8, WarpSize: 0, ReleaseFraction: 0.5, TaskRegisters: 8, SwapBuffers: 6},
		{Rows: 8, Warps: 8, WarpSize: 32, ReleaseFraction: 0.5, TaskRegisters: 8, SwapBuffers: 6},
		{Rows: 12, Warps: 8, WarpSize: 32, ReleaseFraction: 0, TaskRegisters: 8, SwapBuffers: 6},
		{Rows: 12, Warps: 8, WarpSize: 32, ReleaseFraction: 1.5, TaskRegisters: 8, SwapBuffers: 6},
		{Rows: 12, Warps: 8, WarpSize: 32, ReleaseFraction: 0.5, TaskRegisters: 0, SwapBuffers: 6},
		{Rows: 12, Warps: 8, WarpSize: 32, ReleaseFraction: 0.5, TaskRegisters: 8, SwapBuffers: 0},
		{Rows: 12, Warps: 0, WarpSize: 32, ReleaseFraction: 0.5, TaskRegisters: 8, SwapBuffers: 6},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail: %+v", i, c)
		}
	}
}

// The workload must run to completion both ways, retiring every task.
func TestAutomatonCompletesBothWays(t *testing.T) {
	cfg := DefaultConfig()
	total := cfg.Warps * cfg.WarpSize
	for _, shuffle := range []bool{false, true} {
		_, a, _ := runAutomaton(t, cfg, shuffle, 7)
		if a.retired != total {
			t.Errorf("shuffle=%v: retired %d of %d tasks", shuffle, a.retired, total)
		}
		if a.WorkLeft() {
			t.Errorf("shuffle=%v: work left", shuffle)
		}
	}
}

// The headline claim of §4.6: generalized data shuffling lifts SIMD
// efficiency for a non-raytracing divergent workload.
func TestShufflingLiftsEfficiency(t *testing.T) {
	cfg := DefaultConfig()
	base, _, _ := runAutomaton(t, cfg, false, 7)
	shuf, _, ctrl := runAutomaton(t, cfg, true, 7)
	be := base.SIMDEfficiency(cfg.WarpSize)
	se := shuf.SIMDEfficiency(cfg.WarpSize)
	if se <= be {
		t.Errorf("shuffled efficiency %.3f not above baseline %.3f", se, be)
	}
	if ctrl.Stats().SwapsCompleted == 0 {
		t.Errorf("no swaps performed")
	}
	if ctrl.Stats().Remaps == 0 {
		t.Errorf("no remaps performed")
	}
}

// §4.6 point 3: relaxing the release fraction below 1.0 must produce
// partial binds (warps released before full uniformity), and a strict
// fraction of 1.0 must not.
func TestReleaseFractionControlsPartialBinds(t *testing.T) {
	relaxed := DefaultConfig()
	relaxed.ReleaseFraction = 0.6
	_, _, ctrlRelaxed := runAutomaton(t, relaxed, true, 11)
	if ctrlRelaxed.Stats().PartialBinds == 0 {
		t.Errorf("relaxed fraction produced no partial binds")
	}

	strict := DefaultConfig()
	strict.ReleaseFraction = 1.0
	_, _, ctrlStrict := runAutomaton(t, strict, true, 11)
	if ctrlStrict.Stats().PartialBinds != 0 {
		t.Errorf("strict fraction produced %d partial binds", ctrlStrict.Stats().PartialBinds)
	}
}

// Determinism: same seed, same results.
func TestAutomatonDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, _, _ := runAutomaton(t, cfg, true, 3)
	b, _, _ := runAutomaton(t, cfg, true, 3)
	if a.Cycles != b.Cycles || a.WarpInstrs != b.WarpInstrs {
		t.Errorf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.WarpInstrs, b.Cycles, b.WarpInstrs)
	}
}
