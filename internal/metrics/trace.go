package metrics

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Trace accumulates events in the Chrome trace-event JSON format (the
// "JSON Array Format" chrome://tracing and Perfetto load). Timestamps
// are in microseconds by convention; the simulator maps one device
// cycle to one microsecond, so the trace timeline reads directly in
// cycles.
//
// Events are written in append order and all encoding is done by this
// package (no map iteration), so a trace of a deterministic run is
// byte-identical across runs.
type Trace struct {
	buf    bytes.Buffer
	events int
}

// Arg is one key/value pair of an event's args object. Args are
// encoded in slice order.
type Arg struct {
	Name  string
	Value int64
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) begin() {
	if t.events > 0 {
		t.buf.WriteByte(',')
	}
	t.buf.WriteByte('\n')
	t.events++
}

func writeArgs(buf *bytes.Buffer, args []Arg) {
	buf.WriteString(`"args":{`)
	for i, a := range args {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(buf, "%q:%d", a.Name, a.Value)
	}
	buf.WriteByte('}')
}

// ProcessName emits the metadata event naming process pid.
func (t *Trace) ProcessName(pid int, name string) {
	t.begin()
	fmt.Fprintf(&t.buf,
		`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, name)
}

// ThreadName emits the metadata event naming thread tid of process pid.
func (t *Trace) ThreadName(pid, tid int, name string) {
	t.begin()
	fmt.Fprintf(&t.buf,
		`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tid, name)
}

// Slice emits a complete ("X") duration event: a phase of length dur
// starting at ts on (pid, tid).
func (t *Trace) Slice(pid, tid int, name string, ts, dur int64, args []Arg) {
	t.begin()
	fmt.Fprintf(&t.buf,
		`{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,`, name, ts, dur, pid, tid)
	writeArgs(&t.buf, args)
	t.buf.WriteByte('}')
}

// Counter emits a counter ("C") event: the named counter's series
// values at ts. Each Arg becomes one stacked series in the counter
// track.
func (t *Trace) Counter(pid int, name string, ts int64, args []Arg) {
	t.begin()
	fmt.Fprintf(&t.buf, `{"name":%q,"ph":"C","ts":%d,"pid":%d,`, name, ts, pid)
	writeArgs(&t.buf, args)
	t.buf.WriteByte('}')
}

// Instant emits an instant ("i") event at ts on (pid, tid), scoped to
// the thread.
func (t *Trace) Instant(pid, tid int, name string, ts int64) {
	t.begin()
	fmt.Fprintf(&t.buf,
		`{"name":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d}`, name, ts, pid, tid)
}

// WriteJSON writes the complete trace object. The output loads in
// Perfetto / chrome://tracing.
func (t *Trace) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	if _, err := w.Write(t.buf.Bytes()); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// MarshalJSON returns the trace as one JSON document (WriteJSON's
// output).
func (t *Trace) MarshalJSON() ([]byte, error) {
	var sb strings.Builder
	if err := t.WriteJSON(&sb); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}
