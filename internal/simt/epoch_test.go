package simt

import (
	"context"
	"testing"

	"repro/internal/memsys"
)

// memHeavyFactory builds a looping kernel whose slots sweep a footprint
// much larger than the L2, so every SMX streams misses and evictions
// through the shared cache — the access pattern that exposed the
// nondeterminism of the original free-running engine (one goroutine per
// SMX over a mutex-locked L2).
func memHeavyFactory(iters int) Factory {
	return func(id int) (SMXProgram, error) {
		k := &testKernel{
			blocks: []BlockInfo{
				{Name: "loop", Insts: 2, MemInsts: 1, Reconv: 1},
				{Name: "exit", Insts: 1},
			},
			step: func(slot int32, block int, res *StepResult) {
				if block != 0 {
					res.Next = BlockExit
					return
				}
				// Distinct per-slot stride so warps diverge in time, with a
				// footprint of iters*1MB per SMX (L2 is 1.5MB total).
				res.NMem = 1
				res.Mem[0] = MemAccess{
					Addr:  uint64(id)<<30 | uint64(slot)*4096,
					Bytes: 4,
					Space: memsys.Tex,
				}
				res.Next = 0
			},
		}
		// Count loop trips per slot via a side table owned by the kernel.
		trips := make(map[int32]int)
		inner := k.step
		k.step = func(slot int32, block int, res *StepResult) {
			inner(slot, block, res)
			if block == 0 {
				trips[slot]++
				res.Mem[0].Addr += uint64(trips[slot]) * 128 * 17
				if trips[slot] >= iters {
					res.Next = 1
				}
			}
		}
		return SMXProgram{Kernel: k}, nil
	}
}

// The epoch-barrier engine must produce bit-identical device results on
// every run, with many SMXs hammering the shared L2.
func TestEpochEngineDeterministic(t *testing.T) {
	cfg := smallConfig(4)
	cfg.NumSMX = 6
	var ref *GPUResult
	for i := 0; i < 4; i++ {
		res, err := RunGPUCtx(context.Background(), cfg, memHeavyFactory(40))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Stats != ref.Stats {
			t.Fatalf("run %d device stats diverged: cycles %d vs %d, txns %d vs %d",
				i, res.Stats.Cycles, ref.Stats.Cycles,
				res.Stats.MemTransactions, ref.Stats.MemTransactions)
		}
		for s := range res.PerSMX {
			if res.PerSMX[s] != ref.PerSMX[s] {
				t.Fatalf("run %d SMX %d stats diverged: cycles %d vs %d",
					i, s, res.PerSMX[s].Cycles, ref.PerSMX[s].Cycles)
			}
		}
		if res.L1TexMissRate != ref.L1TexMissRate {
			t.Fatalf("run %d L1Tex miss rate diverged: %v vs %v", i, res.L1TexMissRate, ref.L1TexMissRate)
		}
	}
	if ref.Stats.MemTransactions == 0 {
		t.Fatal("workload performed no memory transactions; the test is vacuous")
	}
}

// freeEngineSingleSMX is the device Stats the removed free-running
// engine (an immediate, mutex-locked L2 answering each L1 miss inline)
// produced for memHeavyFactory(30) on smallConfig(4) with one SMX,
// recorded before that engine was deleted.
var freeEngineSingleSMX = func() Stats {
	st := Stats{
		Cycles:          17161,
		WarpInstrs:      364,
		ActiveThreadSum: 11648,
		MemInstrs:       120,
		MemTransactions: 3840,
		IssueSlotsTotal: 137288,
		IssueSlotsUsed:  364,
		Retired:         128,
		SampledExec:     4,
		SampledMem:      1068,
	}
	st.ActiveHist[32] = 364
	return st
}()

// With a single SMX the ordered drain replays requests in exactly the
// order an immediate L2 would have served them, and the deferred
// latency formula matches the immediate one — so the epoch engine, a
// standalone SMX.Run, and RunFor in chunks that are not a multiple of
// the epoch length must all reproduce the free engine's recorded Stats
// bit for bit.
func TestEpochEngineMatchesFreeOnSingleSMX(t *testing.T) {
	cfg := smallConfig(4)
	cfg.NumSMX = 1
	if cfg.EpochLen()%97 == 0 {
		t.Fatalf("epoch length %d is a multiple of the RunFor chunk", cfg.EpochLen())
	}
	standalone := func(drive func(s *SMX) error) Stats {
		t.Helper()
		prog, err := memHeavyFactory(30)(0)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestSMX(t, cfg, prog.Kernel, prog.Hooks)
		s.LaunchAll(0)
		if err := drive(s); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}

	gpu, err := RunGPUCtx(context.Background(), cfg, memHeavyFactory(30))
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		got  Stats
	}{
		{"RunGPUCtx", gpu.Stats},
		{"SMX.Run", standalone(func(s *SMX) error {
			_, err := s.Run()
			return err
		})},
		{"SMX.RunFor(97)", standalone(func(s *SMX) error {
			for s.LiveWarps() > 0 {
				if err := s.RunFor(97); err != nil {
					return err
				}
			}
			return nil
		})},
	}
	for _, r := range runs {
		if r.got != freeEngineSingleSMX {
			t.Errorf("%s diverged from the recorded free engine:\n got %+v\nwant %+v",
				r.name, r.got, freeEngineSingleSMX)
		}
	}
}

// EpochLen clamps to the minimum L2-bound latency so deferred
// resolution can never be late, and respects explicit settings below
// the clamp.
func TestEpochLenClamp(t *testing.T) {
	cfg := DefaultConfig()
	if got, want := cfg.EpochLen(), int64(DefaultEpochCycles); got != want {
		t.Errorf("default EpochLen = %d, want %d", got, want)
	}
	cfg.EpochCycles = 16
	if got := cfg.EpochLen(); got != 16 {
		t.Errorf("explicit EpochLen = %d, want 16", got)
	}
	cfg.Mem.L1HitLat, cfg.Mem.L2HitLat = 3, 4
	cfg.EpochCycles = 100
	if got := cfg.EpochLen(); got != 7 {
		t.Errorf("clamped EpochLen = %d, want 7 (L1HitLat+L2HitLat)", got)
	}
}

// The engine must error on an invalid epoch configuration.
func TestEngineConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative EpochCycles validated")
	}
}
