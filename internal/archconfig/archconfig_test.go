package archconfig

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simt"
	"repro/internal/warpsched"
)

func TestDecodeEmptyObjectNeedsName(t *testing.T) {
	_, err := Decode([]byte(`{}`))
	ce, ok := AsConfigError(err)
	if !ok || ce.Field != "name" {
		t.Fatalf("want name ConfigError, got %v", err)
	}
}

// An omitted field must behave exactly like its explicit GTX780
// default: decoding a name-only config equals decoding the fully
// explicit gtx780 file.
func TestNormalizeOmittedEqualsExplicit(t *testing.T) {
	minimal, err := Decode([]byte(`{"name":"gtx780"}`))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Builtin(DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	// Summary is documentation, not device shape.
	minimal.Summary = full.Summary
	if minimal != full {
		t.Errorf("minimal decode != builtin:\n%+v\n%+v", minimal, full)
	}
}

func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"duplicate key", `{"name":"x","smx_count":4,"smx_count":8}`, "smx_count"},
		{"unknown field", `{"name":"x","smx_counts":4}`, "body"},
		{"trailing garbage", `{"name":"x"} {}`, "body"},
		{"wrong type", `{"name":"x","warp_width":"wide"}`, "warp_width"},
		{"non-object", `[1,2]`, "body"},
		{"not json", `shader model 6`, "body"},
		{"oversized", `{"name":"` + strings.Repeat("a", MaxConfigBytes) + `"}`, "body"},
		{"rf banks above the register file's cap", `{"name":"x","rf_banks":65}`, "rf_banks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.body))
			ce, ok := AsConfigError(err)
			if !ok {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Errorf("field = %q, want %q (err: %v)", ce.Field, tc.field, err)
			}
		})
	}
}

func TestValidateRanges(t *testing.T) {
	base := func() Config { return Config{Name: "t"}.Normalized() }
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"name", func(c *Config) { c.Name = "Bad Name!" }},
		{"warp_width", func(c *Config) { c.WarpWidth = 64 }},
		{"warp_width", func(c *Config) { c.WarpWidth = -1 }},
		{"smx_count", func(c *Config) { c.SMXCount = 4096 }},
		{"schedulers_per_smx", func(c *Config) { c.SchedulersPerSMX = 100 }},
		{"dispatch_per_scheduler", func(c *Config) { c.DispatchPerScheduler = 9 }},
		{"warps_per_smx", func(c *Config) { c.WarpsPerSMX = 5000 }},
		{"clock_mhz", func(c *Config) { c.ClockMHz = 20000 }},
		{"line_bytes", func(c *Config) { c.LineBytes = 100 }},
		{"l1_data_kb", func(c *Config) { c.L1DataKB = 2048 }},
		{"l1_tex_kb", func(c *Config) { c.L1TexKB = -3 }},
		{"l1_assoc", func(c *Config) { c.L1Assoc = 100 }},
		{"l2_kb", func(c *Config) { c.L2KB = 1 << 21 }},
		{"l2_assoc", func(c *Config) { c.L2Assoc = 65 }},
		{"l1_hit_lat", func(c *Config) { c.L1HitLat = -1 }},
		{"l2_hit_lat", func(c *Config) { c.L2HitLat = 5 }},
		{"dram_lat", func(c *Config) { c.DRAMLat = 10 }},
		{"tx_cycles", func(c *Config) { c.TxCycles = 100 }},
		{"rf_banks", func(c *Config) { c.RFBanks = 1000 }},
		{"rf_regs_per_smx", func(c *Config) { c.RFRegsPerSMX = 100 }},
		{"drs_backup_rows", func(c *Config) { c.DRSBackupRows = 17 }},
		{"drs_swap_buffers", func(c *Config) { c.DRSSwapBuffers = 2 }},
		{"sched", func(c *Config) { c.Sched = "fifo" }},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(&c)
		err := c.Validate()
		ce, ok := AsConfigError(err)
		if !ok {
			t.Errorf("%s: want *ConfigError, got %v", tc.field, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("mutation of %s rejected under field %q: %v", tc.field, ce.Field, err)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("normalized base rejected: %v", err)
	}
}

// A bad scheduler name must surface the registry's typed error through
// the ConfigError wrapper.
func TestValidateSchedUnwraps(t *testing.T) {
	c := Config{Name: "t", Sched: "fifo"}.Normalized()
	err := c.Validate()
	var ue *warpsched.UnknownSchedulerError
	if !errors.As(err, &ue) || ue.Name != "fifo" {
		t.Fatalf("want wrapped UnknownSchedulerError, got %v", err)
	}
}

// The catalog: every builtin validates, gtx780 translates to exactly
// the hard-coded component defaults, and the four builtin architecture
// configs differ from gtx780 only where documented.
func TestBuiltinCatalog(t *testing.T) {
	want := []string{"gtx780", "aila", "drs", "dmk", "tbc", "modern-mid", "modern-big"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("catalog = %v, want %v", got, want)
	}
	for _, name := range want {
		c, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c.Summary == "" {
			t.Errorf("%s: empty summary", name)
		}
	}

	gtx, _ := Builtin(DefaultName)
	wantSimt := simt.DefaultConfig()
	// reflect.DeepEqual because simt.Config carries the (nil here)
	// scheduler-factory func field and is no longer ==-comparable.
	if got := gtx.Simt(); !reflect.DeepEqual(got, wantSimt) {
		t.Errorf("gtx780.Simt() != simt.DefaultConfig():\n%+v\n%+v", got, wantSimt)
	}
	if got, want := gtx.DRS(), core.DefaultConfig(); got != want {
		t.Errorf("gtx780.DRS() != core.DefaultConfig():\n%+v\n%+v", got, want)
	}
	if gtx.WarpsPerSMX != 48 || gtx.Sched != "gto" {
		t.Errorf("gtx780 warp budget/sched: %d/%s", gtx.WarpsPerSMX, gtx.Sched)
	}

	// The four architecture configs share the gtx780 device; only
	// identity (and drs's residency documentation) differs.
	for _, name := range []string{"aila", "drs", "dmk", "tbc"} {
		c, _ := Builtin(name)
		n := c
		n.Name, n.Summary, n.WarpsPerSMX = gtx.Name, gtx.Summary, gtx.WarpsPerSMX
		if n != gtx {
			t.Errorf("%s deviates from gtx780 beyond name/summary/warps: %+v", name, c)
		}
	}
	drs, _ := Builtin("drs")
	if drs.WarpsPerSMX != 58 {
		t.Errorf("drs warps_per_smx = %d, want 58 (60 rows - 2x1 backup)", drs.WarpsPerSMX)
	}
	if got, want := core.DefaultConfig().Warps(), 58; got != want {
		t.Fatalf("core default warp derivation moved: %d != %d; update the drs config", got, want)
	}
}

func TestUnknownArch(t *testing.T) {
	_, err := Builtin("gtx1080")
	var ue *UnknownArchError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnknownArchError, got %v", err)
	}
	if ue.Name != "gtx1080" || len(ue.Known) != 7 {
		t.Errorf("error carries name=%q known=%v", ue.Name, ue.Known)
	}
}

// TestCheckedInConfigs proves the files under testdata/archs/ are the
// builtin catalog: every file decodes to exactly its builtin entry,
// and every builtin has a file. The files are the user-facing
// documentation of the format; drift between them and the Go catalog
// would make that documentation a lie.
func TestCheckedInConfigs(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "archs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if want := strings.TrimSuffix(e.Name(), ".json"); c.Name != want {
			t.Errorf("%s: config names itself %q", e.Name(), c.Name)
		}
		b, err := Builtin(c.Name)
		if err != nil {
			t.Errorf("%s: not a builtin: %v", e.Name(), err)
			continue
		}
		if c != b {
			t.Errorf("%s: file differs from builtin:\nfile:    %+v\nbuiltin: %+v", e.Name(), c, b)
		}
		seen[c.Name] = true
	}
	for _, name := range Names() {
		if !seen[name] {
			t.Errorf("builtin %s has no checked-in file under testdata/archs/", name)
		}
	}
	if len(seen) < 6 {
		t.Errorf("only %d checked-in configs; want the four builtin architectures plus two modern shapes (and the gtx780 ancestor)", len(seen))
	}
}

// Round-trip: marshaling a builtin and decoding it lands on the same
// config (the format is total over the catalog).
func TestBuiltinRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, _ := Builtin(name)
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back != c {
			t.Errorf("%s: round trip changed config", name)
		}
	}
}

func TestDecodeFile(t *testing.T) {
	c, err := DecodeFile(filepath.Join("..", "..", "testdata", "archs", "modern-mid.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "modern-mid" || c.SMXCount != 48 {
		t.Errorf("unexpected config: %+v", c)
	}
	if _, err := DecodeFile(filepath.Join("..", "..", "testdata", "archs", "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
