package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// span is one timed call into a layer. Spans of one op share op; parent
// is the id of the span that made the call (0 for a root span).
type span struct {
	id, parent, op int
	name           string
	start, end     time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; they are written once, at exit. A nil
// *tracer records nothing, so untraced code paths call it freely.
// Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a completed span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return id
}

// begin opens a span that end closes; the id is valid for children as
// soon as begin returns.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func(id int) error) error {
	id := t.begin(name, parent, op)
	defer t.end(id)
	return fn(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is one span name's aggregate: how many spans, their summed
// duration, and their summed self time.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover: children are
// clipped to the parent, and overlapping children (cells running on
// parallel workers) are merged first, so covered time is never
// subtracted twice. Names are sorted by self time, largest first.
func selfTimes(spans []span) []selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	agg := make(map[string]*selfTime)
	for _, s := range spans {
		a := agg[s.name]
		if a == nil {
			a = &selfTime{name: s.name}
			agg[s.name] = a
		}
		a.count++
		a.total += s.end - s.start
		a.self += s.end - s.start - covered(s, children[s.id])
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered returns the length of the union of the children's intervals
// within the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (loads in
// Perfetto and chrome://tracing). Each span becomes a complete event with
// its op, id and parent as args; spans are placed on the lowest thread
// lane where they nest properly, so concurrent cells get lanes of their
// own.
func writeChrome(w io.Writer, workload string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].start != sorted[j].start {
			return sorted[i].start < sorted[j].start
		}
		return sorted[i].end > sorted[j].end
	})
	tr := metrics.NewTrace()
	tr.ProcessName(1, workload)
	var lanes [][]span // per lane, the stack of open spans
	for _, s := range sorted {
		lane := -1
		for i := range lanes {
			st := lanes[i]
			for len(st) > 0 && st[len(st)-1].end <= s.start {
				st = st[:len(st)-1]
			}
			lanes[i] = st
			if len(st) == 0 || st[len(st)-1].end >= s.end {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(lanes)
			lanes = append(lanes, nil)
			tr.ThreadName(1, lane+1, fmt.Sprintf("lane %d", lane+1))
		}
		lanes[lane] = append(lanes[lane], s)
		tr.Slice(1, lane+1, s.name, s.start.Microseconds(), (s.end - s.start).Microseconds(), []metrics.Arg{
			{Name: "op", Value: int64(s.op)},
			{Name: "id", Value: int64(s.id)},
			{Name: "parent", Value: int64(s.parent)},
		})
	}
	return tr.WriteJSON(w)
}
