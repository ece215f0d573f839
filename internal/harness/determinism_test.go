package harness

import (
	"testing"

	"repro/internal/scene"
)

// The quickstart configuration (conference room, incoherent secondary
// bounce, Aila then DRS) must produce bit-identical GPUResult.Stats —
// device cycles, L1Tex miss rate, register file counters — on every
// run. This is the go-test form of the ISSUE's determinism acceptance
// criterion; cmd/drsbench -repeat covers the full experiment matrix.
func TestQuickstartConfigurationBitReproducible(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1500)
	rays := traces.Bounce(3).Rays
	opt := smallOptions()
	opt.Simt.NumSMX = 5

	for _, arch := range []Arch{ArchAila, ArchDRS} {
		var ref *Result
		for i := 0; i < 3; i++ {
			res, err := RunNamed(arch.String(), rays, data, opt)
			if err != nil {
				t.Fatalf("%v run %d: %v", arch, i, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.GPU.Stats != ref.GPU.Stats {
				t.Fatalf("%v run %d: device stats diverged: cycles %d vs %d, mem txns %d vs %d",
					arch, i, res.GPU.Stats.Cycles, ref.GPU.Stats.Cycles,
					res.GPU.Stats.MemTransactions, ref.GPU.Stats.MemTransactions)
			}
			if res.GPU.L1TexMissRate != ref.GPU.L1TexMissRate {
				t.Fatalf("%v run %d: L1Tex miss rate diverged: %v vs %v",
					arch, i, res.GPU.L1TexMissRate, ref.GPU.L1TexMissRate)
			}
			if res.GPU.RFStats != ref.GPU.RFStats {
				t.Fatalf("%v run %d: RF counters diverged: %+v vs %+v",
					arch, i, res.GPU.RFStats, ref.GPU.RFStats)
			}
			for s := range res.GPU.PerSMX {
				if res.GPU.PerSMX[s] != ref.GPU.PerSMX[s] {
					t.Fatalf("%v run %d: SMX %d stats diverged", arch, i, s)
				}
			}
		}
	}
}

// The harness's determinism assertion mode must pass on the default
// (epoch) engine for all four architectures.
func TestCheckDeterminismPassesOnEpochEngine(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.CrytekSponza, 1200)
	rays := traces.Bounce(2).Rays
	if len(rays) > 2000 {
		rays = rays[:2000]
	}
	opt := smallOptions()
	opt.Simt.NumSMX = 3
	opt.CheckDeterminism = true
	for _, arch := range []Arch{ArchAila, ArchDRS, ArchDMK, ArchTBC} {
		if _, err := RunNamed(arch.String(), rays, data, opt); err != nil {
			t.Errorf("%v: determinism check failed: %v", arch, err)
		}
	}
}
