package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scene"
)

// gaugeColumns are series columns that sample instantaneous state; every
// other column is cumulative and must agree with the registry total at
// the final barrier.
func isGaugeColumn(name string) bool {
	return strings.HasSuffix(name, "/live_warps") || strings.HasSuffix(name, "/l2_queue")
}

// TestSeriesTotalsMatchRegistry is the acceptance check for the epoch
// sampler: the last sample of every cumulative time-series column must
// equal the end-of-run registry total for the same path, exactly. The
// engine samples after the barrier's L2 drain specifically to make this
// hold; a divergence means the sampler and the registry disagree about
// what happened, and neither can be trusted.
func TestSeriesTotalsMatchRegistry(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays[:400]
	opt := smallOptions()
	opt.Observe = true

	for _, arch := range []Arch{ArchAila, ArchDRS, ArchDMK, ArchTBC} {
		res, err := RunNamed(arch.String(), rays, data, opt)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if res.Series == nil || res.Series.Len() == 0 {
			t.Fatalf("%v: no epoch samples", arch)
		}
		checked := 0
		_, final := res.Series.At(res.Series.Len() - 1)
		for i, col := range res.Series.Columns() {
			if isGaugeColumn(col) {
				continue
			}
			last := final[i]
			total, ok := res.Metrics.Get(col)
			if !ok {
				// Columns like smx0/sampled_exec mirror registry paths
				// one-to-one; a column with no registry twin is a wiring bug.
				t.Errorf("%v: series column %q has no registry entry", arch, col)
				continue
			}
			if last != total {
				t.Errorf("%v: %s: final sample %d != registry total %d", arch, col, last, total)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%v: no cumulative columns checked", arch)
		}
	}
}

// TestChromeTraceExport checks the trace exporter end to end: it must
// emit well-formed Chrome trace-event JSON with the per-SMX thread
// structure, slices, and counters Perfetto expects.
func TestChromeTraceExport(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays[:400]
	opt := smallOptions()
	opt.Observe = true

	res, err := RunNamed("drs", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := res.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	threads := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		switch ev.Ph {
		case "X":
			threads[ev.Tid] = true
			if ev.Ts == nil || ev.Dur == nil || *ev.Dur <= 0 {
				t.Fatalf("slice %q missing ts/dur or nonpositive dur", ev.Name)
			}
			if _, ok := ev.Args["issued_instrs"]; !ok {
				t.Errorf("slice %q lacks issued_instrs arg", ev.Name)
			}
		case "C":
			if ev.Ts == nil || len(ev.Args) == 0 {
				t.Fatalf("counter %q missing ts or args", ev.Name)
			}
		}
	}
	if counts["M"] < res.Config.NumSMX+1 {
		t.Errorf("want >= %d metadata events (process + per-SMX threads), got %d", res.Config.NumSMX+1, counts["M"])
	}
	if counts["X"] == 0 || counts["C"] == 0 {
		t.Errorf("trace has no slices or no counters: %v", counts)
	}
	if len(threads) != res.Config.NumSMX {
		t.Errorf("slices cover %d threads, want one per SMX (%d)", len(threads), res.Config.NumSMX)
	}

	// With Observe off there is no series at all.
	plain, err := RunNamed("aila", rays, data, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ChromeTrace(); err == nil {
		t.Error("ChromeTrace without Options.Observe should fail")
	}
}

// The trace's process is named after the policy that ran, so policies
// outside the four-architecture Arch enum (whose run/arch metric is -1)
// get their own name rather than gpu/unknown.
func TestChromeTraceProcessNameIsPolicy(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays[:400]
	opt := smallOptions()
	opt.Observe = true
	res, err := RunNamed("ser", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Metrics.Get("run/arch"); !ok || v != -1 {
		t.Errorf("run/arch = %d (present %v), want -1 for a policy that postdates the Arch enum", v, ok)
	}
	tr, err := res.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if got := ev.Args["name"]; got != "gpu/ser" {
				t.Errorf("process_name = %v, want gpu/ser", got)
			}
			return
		}
	}
	t.Error("trace has no process_name metadata event")
}
