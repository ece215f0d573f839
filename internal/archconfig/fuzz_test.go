package archconfig

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/regfile"
)

// FuzzArchConfig holds the decoder to its contract: arbitrary bytes
// produce either a valid config or a typed *ConfigError — never a
// panic, and never a config that fails Validate. Accepted configs must
// also survive a normalize/validate round trip (Decode's output is a
// fixed point) and build a register file.
func FuzzArchConfig(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"name":"gtx780"}`,
		`{"name":"modern-mid","smx_count":48,"l2_kb":6144,"dram_lat":350}`,
		`{"name":"x","smx_count":4,"smx_count":8}`,
		`{"name":"x","warp_width":64}`,
		`{"name":"x","warp_width":"wide"}`,
		`{"name":"x","smx_count":-3}`,
		`{"name":"x","line_bytes":100}`,
		`{"name":"x","l2_hit_lat":1}`,
		`{"name":"x","sched":"fifo"}`,
		`{"name":"x","drs_swap_buffers":1}`,
		`{"name":"x"} {}`,
		`{"name":"x","unknown_field":1}`,
		`{"name":[1,2]}`,
		`[{"name":"x"}]`,
		`not json at all`,
		`{"name":"x","smx_count":1e300}`,
		`{"name":"x","smx_count":3.5}`,
		`{"name":"` + strings.Repeat("a", 65) + `"}`,
		"{\"name\":\"x\",\n\"rf_banks\":0}",
		`{"name":"x","rf_banks":65}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			if !errors.As(err, new(*ConfigError)) {
				t.Fatalf("non-typed decode error %T: %v", err, err)
			}
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("Decode accepted a config Validate rejects: %v\nconfig: %+v", verr, c)
		}
		if n := c.Normalized(); n != c {
			t.Fatalf("decoded config is not a normalize fixed point:\n%+v\n%+v", c, n)
		}
		// An accepted config must build the parts that panic on
		// parameters out of their range.
		regfile.New(c.Simt().RF)
	})
}
