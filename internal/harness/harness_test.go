package harness

import (
	"strings"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/progcheck"
	"repro/internal/render"
	"repro/internal/reorder"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/tbc"
	"repro/internal/trace"
)

// testWorkload builds a small scene, its BVH, and a two-bounce ray
// stream captured from the renderer.
func testWorkload(t testing.TB, b scene.Benchmark, tris int) (*kernels.SceneData, *trace.Set, *bvh.BVH) {
	t.Helper()
	s := scene.Generate(b, tris)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cam := render.CameraFor(b, 48, 36)
	res, err := render.Render(s, bv, cam, render.Config{
		Width: 48, Height: 36, SamplesPerPixel: 1, MaxDepth: 4, CaptureTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return kernels.NewSceneData(bv), res.Traces, bv
}

// smallOptions shrinks the device so tests run fast.
func smallOptions() Options {
	opt := DefaultOptions()
	opt.Simt.NumSMX = 2
	opt.Simt.MaxCycles = 1 << 24
	opt.Simt.MaxWarpsPerSMX = 8
	// Scale the DRS machine down to match the Aila kernel so the small
	// test workloads exercise both at comparable occupancy, and shrink
	// the TBC blocks with it.
	drsCfg := core.DefaultConfig()
	drsCfg.WarpsOverride = 8
	tbcCfg := tbc.DefaultConfig()
	tbcCfg.WarpsPerBlock = 4
	opt.PolicyOverrides = []reorder.Policy{core.NewPolicy(drsCfg), tbc.NewPolicy(tbcCfg)}
	return opt
}

// verifyHits checks the architecture's committed hits against the CPU
// reference traversal.
func verifyHits(t *testing.T, name string, rays []geom.Ray, hits []geom.Hit, bv *bvh.BVH) {
	t.Helper()
	bad := 0
	for i, r := range rays {
		want := bv.Intersect(r, nil)
		got := hits[i]
		if got.TriIndex != want.TriIndex {
			// Tolerate coincident-surface ties at equal t.
			if got.TriIndex >= 0 && want.TriIndex >= 0 && abs(got.T-want.T) < 1e-4 {
				continue
			}
			bad++
			if bad <= 3 {
				t.Errorf("%s ray %d: got tri %d (t=%v), want tri %d (t=%v)",
					name, i, got.TriIndex, got.T, want.TriIndex, want.T)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d/%d wrong hits", name, bad, len(rays))
	}
}

func abs(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

func TestAllArchitecturesMatchReference(t *testing.T) {
	data, traces, bv := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays // incoherent secondary rays
	if len(rays) < 500 {
		t.Fatalf("workload too small: %d rays", len(rays))
	}
	opt := smallOptions()
	for _, arch := range []Arch{ArchAila, ArchDRS, ArchDMK, ArchTBC} {
		res, err := RunNamed(arch.String(), rays, data, opt)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		verifyHits(t, arch.String(), rays, res.Hits, bv)
		if res.Mrays <= 0 {
			t.Errorf("%v: nonpositive Mrays", arch)
		}
		if res.SIMDEff <= 0 || res.SIMDEff > 1 {
			t.Errorf("%v: efficiency out of range: %v", arch, res.SIMDEff)
		}
	}
}

func TestDRSBeatsAilaOnSecondaryRays(t *testing.T) {
	// DRS needs a steady-state workload (several pool refills per ray
	// slot) and a scene that does not fit in the L1 texture cache
	// before its shuffling pays off; render a denser trace over a
	// bigger scene than the other tests use.
	s := scene.Generate(scene.ConferenceRoom, 8000)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cam := render.CameraFor(scene.ConferenceRoom, 128, 96)
	res, err := render.Render(s, bv, cam, render.Config{
		Width: 128, Height: 96, SamplesPerPixel: 1, MaxDepth: 4, CaptureTraces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := kernels.NewSceneData(bv)
	rays := res.Traces.Bounce(3).Rays
	// Paper-scale warp counts on a single SMX: the DRS depends on
	// abundant warps to hide both memory latency and rdctrl stalls
	// (§4.3), so the scaled-down machine of smallOptions is unfair here.
	opt := DefaultOptions()
	opt.Simt.NumSMX = 1
	opt.Simt.MaxCycles = 1 << 26
	aila, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	drs, err := RunNamed("drs", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if drs.SIMDEff <= aila.SIMDEff {
		t.Errorf("DRS efficiency %.3f not above Aila %.3f", drs.SIMDEff, aila.SIMDEff)
	}
	if drs.Mrays <= aila.Mrays {
		t.Errorf("DRS %.1f Mrays not above Aila %.1f", drs.Mrays, aila.Mrays)
	}
	if drs.DRS.SwapsCompleted == 0 {
		t.Errorf("DRS completed no swaps on incoherent rays")
	}
}

func TestIdealDRSAtLeastAsFast(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.FairyForest, 1200)
	rays := traces.Bounce(2).Rays
	opt := smallOptions()
	real, err := RunNamed("drs", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	idealCfg := core.DefaultConfig()
	idealCfg.WarpsOverride = 8
	idealCfg.Ideal = true
	opt.PolicyOverrides = []reorder.Policy{core.NewPolicy(idealCfg)}
	ideal, err := RunNamed("drs", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.DRS.IdealShuffles == 0 {
		t.Errorf("ideal mode performed no shuffles")
	}
	// Allow a little modelling noise, but ideal shuffling should not be
	// significantly slower than real shuffling.
	if ideal.Mrays < real.Mrays*0.9 {
		t.Errorf("ideal DRS %.1f Mrays much slower than real %.1f", ideal.Mrays, real.Mrays)
	}
}

// gatedNoCaps builds Kernel 1, whose rdctrl block is gated and
// TagCtrl-classified, but declares no engine capabilities.
type gatedNoCaps struct{}

func (gatedNoCaps) Name() string         { return "gated-nocaps" }
func (gatedNoCaps) Summary() string      { return "Kernel 1 without the DRS capabilities" }
func (gatedNoCaps) Validate() error      { return nil }
func (gatedNoCaps) Warps() int           { return 0 }
func (gatedNoCaps) Caps() progcheck.Caps { return progcheck.Caps{} }
func (gatedNoCaps) NewSMX(env reorder.Env) (reorder.Instance, error) {
	slots := env.Cfg.MaxWarpsPerSMX * env.Cfg.WarpSize
	return whileIfInstance{kernels.NewWhileIf(env.Data, env.Pool, slots, env.WhileIf)}, nil
}

type whileIfInstance struct{ k *kernels.WhileIf }

func (i whileIfInstance) Program() simt.SMXProgram { return simt.SMXProgram{Kernel: i.k} }
func (i whileIfInstance) Hits() []geom.Hit         { return i.k.Hits }

// The harness verifies every SMX's kernel against the capabilities its
// policy declares: a gated program under a policy that services no
// gate fails the run with the verifier's rule, not a panic.
func TestRunRejectsKernelBeyondPolicyCaps(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 600)
	opt := smallOptions()
	opt.PolicyOverrides = []reorder.Policy{gatedNoCaps{}}
	res, err := RunNamed("gated-nocaps", traces.Bounce(1).Rays, data, opt)
	if err == nil || !strings.Contains(err.Error(), string(progcheck.RuleGateUnserved)) {
		t.Fatalf("got result %v, error %v; want a %s rejection", res != nil, err, progcheck.RuleGateUnserved)
	}
}

func TestEmptyStreamRejected(t *testing.T) {
	data, _, _ := testWorkload(t, scene.ConferenceRoom, 800)
	if _, err := RunNamed("aila", nil, data, smallOptions()); err == nil {
		t.Errorf("empty stream accepted")
	}
}

func TestPrimaryRaysMoreEfficientThanSecondary(t *testing.T) {
	// The premise of Figure 2, on the simulated pipeline.
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1500)
	opt := smallOptions()
	b1, err := RunNamed("aila", traces.Bounce(1).Rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := RunNamed("aila", traces.Bounce(3).Rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if b1.SIMDEff <= b3.SIMDEff {
		t.Errorf("primary efficiency %.3f not above bounce-3 %.3f", b1.SIMDEff, b3.SIMDEff)
	}
}

func TestDMKReportsSpawnOverhead(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays
	res, err := RunNamed("dmk", rays, data, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.DMKStats.Respawns == 0 {
		t.Errorf("DMK made no respawns on incoherent rays")
	}
	bd := res.GPU.Stats.UtilizationBreakdown(32)
	if bd.SI <= 0 {
		t.Errorf("DMK reported no SI instructions")
	}
	if res.GPU.Stats.SpawnConflictCycles == 0 {
		t.Errorf("no spawn conflict cycles recorded")
	}
}

func TestTBCSyncsAndCompacts(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays
	res, err := RunNamed("tbc", rays, data, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.TBCStats.Compactions == 0 || res.TBCStats.WarpsFormed == 0 {
		t.Errorf("TBC did not compact: %+v", res.TBCStats)
	}
	if res.GPU.Stats.BarrierStallCycles == 0 {
		t.Errorf("TBC recorded no barrier stalls")
	}
}

func TestArchString(t *testing.T) {
	names := map[Arch]string{ArchAila: "aila", ArchDRS: "drs", ArchDMK: "dmk", ArchTBC: "tbc"}
	for a, n := range names {
		if a.String() != n {
			t.Errorf("%d name = %q", a, a.String())
		}
	}
	if Arch(99).String() != "unknown" {
		t.Errorf("unknown arch name")
	}
}
