package harness

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/archconfig"
	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/warpsched"
)

func mustBuiltin(t *testing.T, name string) archconfig.Config {
	t.Helper()
	ac, err := archconfig.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return ac
}

// Applying the gtx780 config to the default options must reproduce the
// hard-coded configuration exactly: same device, same warp budget, and
// a DRS override equal to the core defaults (i.e. a no-op).
func TestApplyArchGTX780Identity(t *testing.T) {
	base := DefaultOptions()
	got, err := ApplyArch(mustBuiltin(t, "gtx780"), base)
	if err != nil {
		t.Fatal(err)
	}
	// reflect.DeepEqual because simt.Config carries a func field.
	if !reflect.DeepEqual(got.Simt, base.Simt) {
		t.Errorf("device config changed:\n%+v\n%+v", got.Simt, base.Simt)
	}
	if got.Scheduler != warpsched.NewGTO() {
		t.Errorf("Scheduler = %v, want the config default gto", got.Scheduler)
	}
	if len(got.PolicyOverrides) != 1 {
		t.Fatalf("overrides = %d entries, want exactly the DRS budget", len(got.PolicyOverrides))
	}
	pol, err := got.resolve("drs")
	if err != nil {
		t.Fatal(err)
	}
	if warps := pol.Warps(); warps != core.DefaultConfig().Warps() {
		t.Errorf("DRS override warp derivation = %d, want default %d", warps, core.DefaultConfig().Warps())
	}
}

// ApplyArch must keep the caller's runtime knobs (epoch length, cycle
// caps, an explicit scheduler choice, existing overrides) and only
// replace device shape.
func TestApplyArchPreservesRuntime(t *testing.T) {
	base := smallOptions()
	base.Simt.EpochCycles = 512
	base.Simt.MaxCycles = 123456
	base.Scheduler = warpsched.WaSP{Runners: 3, Distance: 16}
	nOverrides := len(base.PolicyOverrides)

	got, err := ApplyArch(mustBuiltin(t, "modern-mid"), base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Simt.EpochCycles != 512 || got.Simt.MaxCycles != 123456 {
		t.Errorf("runtime knobs not preserved: %+v", got.Simt)
	}
	if got.Simt.NumSMX != 48 {
		t.Errorf("NumSMX = %d, want the config's 48", got.Simt.NumSMX)
	}
	if got.Scheduler != base.Scheduler {
		t.Errorf("explicit Scheduler overwritten: %v", got.Scheduler)
	}
	if len(got.PolicyOverrides) != nOverrides+1 {
		t.Errorf("overrides = %d, want base %d plus the arch DRS budget", len(got.PolicyOverrides), nOverrides)
	}
	if len(base.PolicyOverrides) != nOverrides {
		t.Error("base override slice mutated")
	}
	// First match wins: the base's own DRS override must still be the
	// one a drs run resolves.
	pol, err := got.resolve("drs")
	if err != nil {
		t.Fatal(err)
	}
	if pol != base.PolicyOverrides[0] {
		t.Error("arch DRS budget shadowed the caller's explicit override")
	}
	if _, err := ApplyArch(archconfig.Config{Name: "Bad Name!"}, base); err == nil {
		t.Error("invalid config accepted")
	}
}

// The differential golden at reduced scale: each builtin architecture
// expressed as a config must reproduce the hard-coded run byte for
// byte. The device is shrunk identically on both sides (SMXCount in
// the config, Simt.NumSMX in the options) so the test stays fast; the
// full-scale version of this check is the committed results_*.txt
// comparison in CI.
func TestArchEquivalenceReduced(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays

	for _, name := range []string{"aila", "drs", "dmk", "tbc"} {
		t.Run(name, func(t *testing.T) {
			plain := DefaultOptions()
			plain.Simt.NumSMX = 2
			want, err := RunNamed(name, rays, data, plain)
			if err != nil {
				t.Fatal(err)
			}

			ac := mustBuiltin(t, name)
			ac.SMXCount = 2
			viaCfg, err := ApplyArch(ac, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunNamed(name, rays, data, viaCfg)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.GPU, want.GPU) {
				t.Errorf("GPU stats diverged:\n%+v\n%+v", *got.GPU, *want.GPU)
			}
			if !reflect.DeepEqual(got.Hits, want.Hits) {
				t.Error("hits diverged")
			}
			if got.Mrays != want.Mrays || got.SIMDEff != want.SIMDEff {
				t.Errorf("rates diverged: %v/%v vs %v/%v", got.Mrays, got.SIMDEff, want.Mrays, want.SIMDEff)
			}
			if got.Reorder != want.Reorder || got.DRS != want.DRS {
				t.Error("policy stats diverged")
			}
			// The config names gto explicitly; the hard-coded side runs
			// it implicitly. Identical schedule, same label.
			if got.Sched != "gto" || want.Sched != "gto" {
				t.Errorf("Sched = %q/%q, want gto/gto", got.Sched, want.Sched)
			}
		})
	}
}

// An explicit registry "gto" Scheduler must be byte-identical to the
// default (the registry policy binds the same canonical scan).
func TestRunSchedGTOByteIdentical(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays

	want, err := RunNamed("aila", rays, data, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOptions()
	opt.Scheduler = warpsched.NewGTO()
	got, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.GPU, want.GPU) {
		t.Errorf("explicit gto diverged from default:\n%+v\n%+v", *got.GPU, *want.GPU)
	}
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Error("hits diverged")
	}
	if want.Sched != "gto" || got.Sched != "gto" {
		t.Errorf("Sched labels = %q/%q", want.Sched, got.Sched)
	}
}

// The registry schedulers run end to end: deterministic (identical
// repeat runs), correct result label, and the same committed hits as
// GTO — scheduling changes timing, never results.
func TestRunSchedRegistryEndToEnd(t *testing.T) {
	data, traces, bv := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays

	base, err := RunNamed("aila", rays, data, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lrr", "wasp"} {
		t.Run(name, func(t *testing.T) {
			opt := smallOptions()
			sched, err := Schedulers().New(name)
			if err != nil {
				t.Fatal(err)
			}
			opt.Scheduler = sched
			a, err := RunNamed("aila", rays, data, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunNamed("aila", rays, data, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.GPU, b.GPU) {
				t.Errorf("%s nondeterministic:\n%+v\n%+v", name, *a.GPU, *b.GPU)
			}
			if a.Sched != name {
				t.Errorf("Result.Sched = %q, want %q", a.Sched, name)
			}
			if !reflect.DeepEqual(a.Hits, base.Hits) {
				t.Errorf("%s changed committed hits", name)
			}
			verifyHits(t, name, rays, a.Hits, bv)
		})
	}
}

// A Scheduler instance with non-default configuration runs, and an
// invalid one is rejected with a typed error.
func TestSchedulerPin(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 600)
	rays := traces.Bounce(2).Rays

	opt := smallOptions()
	opt.Scheduler = warpsched.WaSP{Runners: 3, Distance: 16}
	res, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched != "wasp" {
		t.Errorf("Result.Sched = %q, want wasp", res.Sched)
	}

	opt.Scheduler = warpsched.WaSP{Runners: 0, Distance: 16}
	_, err = RunNamed("aila", rays, data, opt)
	var oe *OptionsError
	ok := errors.As(err, &oe)
	if !ok || oe.Field != "Scheduler" {
		t.Fatalf("want Scheduler OptionsError for invalid wasp config, got %v", err)
	}
}

// Scheduler is the harness's only scheduler selector. A factory set on
// Options.Simt would run while Result.Sched reported "gto", so the run
// is rejected with a typed error, and ApplyArch does not carry the
// field across.
func TestRunRejectsSimtSchedFactory(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 800)
	rays := traces.Bounce(1).Rays

	opt := smallOptions()
	opt.Simt.SchedFactory = warpsched.NewLRR().Factory()
	_, err := RunNamed("aila", rays, data, opt)
	var oe *OptionsError
	if !errors.As(err, &oe) || oe.Field != "Simt.SchedFactory" {
		t.Fatalf("want Simt.SchedFactory OptionsError, got %v", err)
	}
	got, err := ApplyArch(mustBuiltin(t, "modern-mid"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Simt.SchedFactory != nil {
		t.Error("ApplyArch carried Simt.SchedFactory across")
	}
}
