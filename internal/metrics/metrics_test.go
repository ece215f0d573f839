package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCounterGaugeConstSnapshot(t *testing.T) {
	r := NewRegistry()
	var c int64
	r.Counter("smx0/warp_instrs", &c)
	r.Gauge("smx0/live_warps", func() int64 { return 7 })
	r.Const("run/rays", 1234)
	c = 41
	s := r.Snapshot()
	if len(s.Paths) != 3 || len(r.names) != 3 {
		t.Fatalf("len = %d / %d, want 3", len(s.Paths), len(r.names))
	}
	if v, ok := s.Get("smx0/warp_instrs"); !ok || v != 41 {
		t.Errorf("counter = %d,%v", v, ok)
	}
	if v, ok := s.Get("smx0/live_warps"); !ok || v != 7 {
		t.Errorf("gauge = %d,%v", v, ok)
	}
	if v, ok := s.Get("run/rays"); !ok || v != 1234 {
		t.Errorf("const = %d,%v", v, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Errorf("missing path found")
	}
	// Snapshots capture; later increments must not leak in.
	c = 100
	if v, _ := s.Get("smx0/warp_instrs"); v != 41 {
		t.Errorf("snapshot mutated to %d", v)
	}
}

func TestSnapshotJSONCanonical(t *testing.T) {
	r := NewRegistry()
	var b, a int64 = 2, 1
	r.Counter("z/b", &b)
	r.Counter("a/a", &a)
	got, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a/a":1,"z/b":2}`
	if string(got) != want {
		t.Errorf("json = %s, want %s", got, want)
	}
	// Must be valid JSON for downstream tooling.
	var m map[string]int64
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m["a/a"] != 1 || m["z/b"] != 2 {
		t.Errorf("roundtrip = %v", m)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	var a int64
	r.Counter("x/a", &a)
	s1 := r.Snapshot()
	a = 5
	s2 := r.Snapshot()
	if d := s1.Diff(s2); d == "" {
		t.Errorf("diff missed divergence")
	}
	if d := s2.Diff(r.Snapshot()); d != "" {
		t.Errorf("identical snapshots diff: %s", d)
	}
	r2 := NewRegistry()
	r2.Const("x/a", 5)
	r2.Const("x/b", 1)
	if d := s2.Diff(r2.Snapshot()); d == "" {
		t.Errorf("extra path not reported")
	}
	if d := r2.Snapshot().Diff(s2); d == "" {
		t.Errorf("missing path not reported")
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"duplicate", func(r *Registry) { r.Const("a", 1); r.Const("a", 2) }},
		{"empty path", func(r *Registry) { r.Const("", 1) }},
		{"uppercase", func(r *Registry) { r.Const("A/b", 1) }},
		{"empty segment", func(r *Registry) { r.Const("a//b", 1) }},
		{"trailing slash", func(r *Registry) { r.Const("a/", 1) }},
		{"leading slash", func(r *Registry) { r.Const("/a", 1) }},
		{"nil counter", func(r *Registry) { r.Counter("a", nil) }},
		{"nil gauge", func(r *Registry) { r.Gauge("a", nil) }},
		{"non-struct", func(r *Registry) { x := 3; r.RegisterStruct("a", &x) }},
		{"non-pointer", func(r *Registry) { r.RegisterStruct("a", struct{ X int64 }{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

type innerStats struct {
	Hits int64
}

type demoStats struct {
	WarpInstrs int64
	SIInstrs   int64
	Hist       [3]int64
	Small      int32
	Plain      int
	Skipped    int64   `metrics:"-"`
	Renamed    int64   `metrics:"other_name"`
	Rate       float64 // non-integer: skipped
	unexported int64
	Inner      innerStats
}

func TestRegisterStruct(t *testing.T) {
	var d demoStats
	d.unexported = 1 // silence unused-field vet noise
	_ = d.unexported
	r := NewRegistry()
	r.RegisterStruct("smx1", &d)
	d.WarpInstrs = 10
	d.SIInstrs = 2
	d.Hist = [3]int64{5, 6, 7}
	d.Small = 3
	d.Plain = 4
	d.Skipped = 99
	d.Renamed = 8
	d.Inner.Hits = 11
	s := r.Snapshot()
	want := map[string]int64{
		"smx1/warp_instrs": 10,
		"smx1/si_instrs":   2,
		"smx1/hist/0":      5,
		"smx1/hist/1":      6,
		"smx1/hist/2":      7,
		"smx1/small":       3,
		"smx1/plain":       4,
		"smx1/other_name":  8,
		"smx1/inner/hits":  11,
	}
	if len(s.Paths) != len(want) {
		t.Errorf("registered %d metrics (%v), want %d", len(s.Paths), s.Paths, len(want))
	}
	for path, v := range want {
		if got, ok := s.Get(path); !ok || got != v {
			t.Errorf("%s = %d,%v want %d", path, got, ok, v)
		}
	}
	if _, ok := s.Get("smx1/skipped"); ok {
		t.Errorf("metrics:\"-\" field registered")
	}
	if _, ok := s.Get("smx1/rate"); ok {
		t.Errorf("float field registered")
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"WarpInstrs":      "warp_instrs",
		"SIInstrs":        "si_instrs",
		"Cycles":          "cycles",
		"L1TexMiss":       "l1_tex_miss",
		"QueueHighWater":  "queue_high_water",
		"BankConflictCyc": "bank_conflict_cyc",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestSeriesRing(t *testing.T) {
	s := NewSeries(3)
	var c int64
	s.Column("x/cum", func() int64 { return c })
	s.Column("x/gauge", func() int64 { return 2 * c })
	if got := s.Columns(); len(got) != 2 || got[0] != "x/cum" || got[1] != "x/gauge" {
		t.Fatalf("columns = %v", got)
	}
	for i := int64(1); i <= 5; i++ {
		c = i * 10
		s.Sample(i * 64)
	}
	if s.Len() != 3 || s.cap != 3 || s.Dropped() != 2 {
		t.Fatalf("len=%d cap=%d dropped=%d", s.Len(), s.cap, s.Dropped())
	}
	// Oldest retained sample is the 3rd.
	cycle, row := s.At(0)
	if cycle != 3*64 || row[0] != 30 || row[1] != 60 {
		t.Errorf("At(0) = %d %v", cycle, row)
	}
	cycle, row = s.At(2)
	if cycle != 5*64 || row[0] != 50 {
		t.Errorf("At(2) = %d %v", cycle, row)
	}
	if _, row = s.At(s.Len() - 1); row[s.ColumnIndex("x/gauge")] != 100 {
		t.Errorf("newest x/gauge = %d", row[s.ColumnIndex("x/gauge")])
	}
	if s.ColumnIndex("x/gauge") != 1 || s.ColumnIndex("nope") != -1 {
		t.Errorf("ColumnIndex wrong")
	}
}

func TestSeriesJSONAndPanics(t *testing.T) {
	s := NewSeries(0)
	if s.cap != DefaultSeriesCap {
		t.Errorf("default cap = %d", s.cap)
	}
	var v int64 = 3
	s.Column("a", func() int64 { return v })
	s.Sample(64)
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"columns":["a"],"dropped":0,"rows":[[64,3]]}`
	if string(got) != want {
		t.Errorf("json = %s, want %s", got, want)
	}
	for name, fn := range map[string]func(){
		"late column":  func() { s.Column("b", func() int64 { return 0 }) },
		"dup column":   func() { NewSeries(2).Column("a", nil) },
		"out of range": func() { s.At(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	if s.Len() != 1 {
		t.Errorf("%d samples after panics, want 1", s.Len())
	}
}

func TestTraceFormat(t *testing.T) {
	tr := NewTrace()
	tr.ProcessName(0, "gpu")
	tr.ThreadName(0, 3, "smx3")
	tr.Slice(0, 3, "exec", 0, 64, []Arg{{"issued", 12}, {"stalled", 1}})
	tr.Counter(0, "smx3 occupancy", 64, []Arg{{"active_warps", 8}})
	tr.Instant(0, 3, "drain", 64)
	if tr.events != 5 {
		t.Errorf("events = %d", tr.events)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("parsed %d events", len(doc.TraceEvents))
	}
	if doc.TraceEvents[2]["ph"] != "X" || doc.TraceEvents[2]["dur"] != float64(64) {
		t.Errorf("slice event = %v", doc.TraceEvents[2])
	}
	args := doc.TraceEvents[3]["args"].(map[string]any)
	if args["active_warps"] != float64(8) {
		t.Errorf("counter args = %v", args)
	}
	// Determinism: an identical build encodes to identical bytes.
	tr2 := NewTrace()
	tr2.ProcessName(0, "gpu")
	tr2.ThreadName(0, 3, "smx3")
	tr2.Slice(0, 3, "exec", 0, 64, []Arg{{"issued", 12}, {"stalled", 1}})
	tr2.Counter(0, "smx3 occupancy", 64, []Arg{{"active_warps", 8}})
	tr2.Instant(0, 3, "drain", 64)
	var buf2 bytes.Buffer
	if err := tr2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("identical traces encoded differently")
	}
	m, err := json.Marshal(tr)
	if err != nil || len(m) == 0 {
		t.Errorf("MarshalJSON: %v", err)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector(0)
	if c.Registry == nil || c.Series == nil || c.Series.cap != DefaultSeriesCap {
		t.Fatalf("collector defaults wrong: %+v", c)
	}
	c2 := NewCollector(16)
	if c2.Series.cap != 16 {
		t.Errorf("cap = %d", c2.Series.cap)
	}
}

func TestValidPath(t *testing.T) {
	for p, want := range map[string]bool{
		"a":        true,
		"smx0/l1d": true,
		"a_b/c9":   true,
		"":         false,
		"a/":       false,
		"/a":       false,
		"a//b":     false,
		"A":        false,
		"a-b":      false,
		"a b":      false,
	} {
		if got := validPath(p); got != want {
			t.Errorf("validPath(%q) = %v, want %v", p, got, want)
		}
	}
}
