package harness

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/reorder"
)

// TestValidateRejections is the table test for the up-front Options
// validation: every malformed configuration must fail with a typed
// *OptionsError naming the offending field, never a deep panic.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		arch   Arch
		mutate func(*Options)
		field  string
	}{
		{
			name: "zero aila warps", arch: ArchAila,
			mutate: func(o *Options) { o.Simt.MaxWarpsPerSMX = 0 },
			field:  "Simt",
		},
		{
			name: "negative aila warps on dmk", arch: ArchDMK,
			mutate: func(o *Options) { o.Simt.MaxWarpsPerSMX = -7 },
			field:  "Simt",
		},
		{
			name: "zero aila warps on tbc", arch: ArchTBC,
			mutate: func(o *Options) { o.Simt.MaxWarpsPerSMX = 0 },
			field:  "Simt",
		},
		{
			name: "broken drs config", arch: ArchDRS,
			mutate: func(o *Options) {
				cfg := core.DefaultConfig()
				cfg.SwapBuffers = -1
				o.PolicyOverrides = []reorder.Policy{core.NewPolicy(cfg)}
			},
			field: "PolicyOverrides",
		},
		{
			name: "negative parallelism", arch: ArchAila,
			mutate: func(o *Options) { o.Parallelism = -1 },
			field:  "Parallelism",
		},
		{
			name: "absurd parallelism", arch: ArchAila,
			mutate: func(o *Options) { o.Parallelism = MaxParallelism + 1 },
			field:  "Parallelism",
		},
		{
			name: "negative series cap", arch: ArchAila,
			mutate: func(o *Options) { o.SeriesCap = -1 },
			field:  "SeriesCap",
		},
		{
			name: "epoch length below floor", arch: ArchAila,
			mutate: func(o *Options) { o.Simt.EpochCycles = -4 },
			field:  "Simt.EpochCycles",
		},
		{
			name: "broken device config", arch: ArchAila,
			mutate: func(o *Options) { o.Simt.NumSMX = 0 },
			field:  "Simt",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			tc.mutate(&opt)
			_, err := opt.resolve(tc.arch.String())
			if err == nil {
				t.Fatalf("resolve accepted a %s configuration", tc.name)
			}
			var oe *OptionsError
			ok := errors.As(err, &oe)
			if !ok {
				t.Fatalf("want *OptionsError, got %T: %v", err, err)
			}
			if oe.Field != tc.field {
				t.Fatalf("field = %q, want %q (reason: %s)", oe.Field, tc.field, oe.Reason)
			}
		})
	}
}

// TestValidateAcceptsDefaults: the paper configuration must pass for
// every registered policy, the four architectures among them.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, name := range Policies().Names() {
		if _, err := DefaultOptions().resolve(name); err != nil {
			t.Fatalf("defaults rejected for policy %s: %v", name, err)
		}
	}
}

// TestValidateUnknownPolicy: an unknown name must fail with the
// registry's typed error — the single place names are judged.
func TestValidateUnknownPolicy(t *testing.T) {
	_, err := DefaultOptions().resolve("warp-drive")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	var ue *reorder.UnknownPolicyError
	if !errors.As(err, &ue) {
		t.Fatalf("want *reorder.UnknownPolicyError, got %T: %v", err, err)
	}
	if ue.Name != "warp-drive" {
		t.Fatalf("error names %q", ue.Name)
	}
}

// TestRunRejectsBeforeBuilding: the validation fires inside Run itself,
// so a malformed request never reaches device construction.
func TestRunRejectsBeforeBuilding(t *testing.T) {
	opt := DefaultOptions()
	opt.Simt.MaxWarpsPerSMX = 0
	rays := []geom.Ray{{}}
	_, err := RunNamed("aila", rays, nil, opt)
	if err == nil {
		t.Fatal("Run accepted a zero warp budget")
	}
	if !errors.As(err, new(*OptionsError)) {
		t.Fatalf("want *OptionsError from Run, got %T: %v", err, err)
	}
}
