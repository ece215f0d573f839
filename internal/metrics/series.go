package metrics

import (
	"bytes"
	"fmt"
)

// seriesCol is one sampled column: a name and the probe the sampler
// reads.
type seriesCol struct {
	name string
	fn   probe
}

// Series is the per-epoch time-series: a fixed set of named columns
// sampled together at every epoch barrier into a ring buffer of rows.
// Columns carry cumulative counters (warp instructions issued so far)
// or instantaneous gauges (live warps, L2 queue depth); both kinds are
// deterministic because sampling happens only at barriers, on the
// engine goroutine, at fixed device cycles.
//
// The ring keeps the newest Cap samples; Dropped counts evictions so
// exporters can say what was cut rather than silently truncating. For
// cumulative columns the final sample always equals the end-of-run
// registry total — the engine samples after the last epoch's barrier
// work, and nothing runs afterwards — which is what lets tests tie the
// two views together exactly.
type Series struct {
	cols    []seriesCol
	byName  map[string]int
	cap     int
	cycles  []int64 // ring storage, len == n
	rows    [][]int64
	start   int // index of the oldest sample
	n       int
	dropped int64
	sealed  bool

	// OnSample, when non-nil, is invoked after every Sample with the
	// device cycle and the freshly captured row (column order matches
	// Columns). It runs on the sampling goroutine — for the epoch-barrier
	// engine that is the engine goroutine at a barrier, with every SMX
	// worker parked — so the callback sees a consistent snapshot and must
	// not block the barrier for long. The service layer uses it to feed
	// live progress streams; the row slice is owned by the series and
	// must be copied if retained.
	OnSample func(cycle int64, row []int64)
}

// NewSeries creates a series with the given ring capacity.
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &Series{byName: make(map[string]int), cap: capacity}
}

// Column registers a sampled column. All columns must be registered
// before the first Sample; registering later panics (rows would change
// width mid-run).
func (s *Series) Column(name string, fn func() int64) {
	if !validPath(name) {
		panic(fmt.Sprintf("metrics: invalid series column %q", name))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate series column %q", name))
	}
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil probe for series column %q", name))
	}
	if s.sealed {
		panic(fmt.Sprintf("metrics: column %q registered after sampling started", name))
	}
	s.byName[name] = len(s.cols)
	s.cols = append(s.cols, seriesCol{name: name, fn: fn})
}

// Sample reads every column at the given device cycle and appends the
// row, evicting the oldest sample if the ring is full.
func (s *Series) Sample(cycle int64) {
	s.sealed = true
	row := make([]int64, len(s.cols))
	for i := range s.cols {
		row[i] = s.cols[i].fn()
	}
	if s.OnSample != nil {
		s.OnSample(cycle, row)
	}
	if s.n < s.cap {
		s.cycles = append(s.cycles, cycle)
		s.rows = append(s.rows, row)
		s.n++
		return
	}
	s.cycles[s.start] = cycle
	s.rows[s.start] = row
	s.start = (s.start + 1) % s.cap
	s.dropped++
}

// Len returns the number of retained samples.
func (s *Series) Len() int { return s.n }

// Dropped returns how many old samples the ring evicted.
func (s *Series) Dropped() int64 { return s.dropped }

// Columns returns the column names in registration order. The slice
// must not be mutated.
func (s *Series) Columns() []string {
	names := make([]string, len(s.cols))
	for i := range s.cols {
		names[i] = s.cols[i].name
	}
	return names
}

// ColumnIndex returns the index of the named column in every row, or
// -1.
func (s *Series) ColumnIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// At returns retained sample i (0 = oldest): its device cycle and the
// row of column values in registration order. The row must not be
// mutated.
func (s *Series) At(i int) (cycle int64, row []int64) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("metrics: series index %d out of range [0,%d)", i, s.n))
	}
	idx := (s.start + i) % s.cap
	return s.cycles[idx], s.rows[idx]
}

// MarshalJSON encodes the series canonically: column names in
// registration order, then one row per retained sample as
// [cycle, v0, v1, ...]. Like Snapshot, equal series encode to equal
// bytes.
func (s *Series) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(`{"columns":[`)
	for i := range s.cols {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q", s.cols[i].name)
	}
	fmt.Fprintf(&buf, `],"dropped":%d,"rows":[`, s.dropped)
	for i := 0; i < s.n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		cycle, row := s.At(i)
		fmt.Fprintf(&buf, "[%d", cycle)
		for _, v := range row {
			fmt.Fprintf(&buf, ",%d", v)
		}
		buf.WriteByte(']')
	}
	buf.WriteString("]}")
	return buf.Bytes(), nil
}
