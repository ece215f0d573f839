// Package metrics is the simulator's deterministic observability
// substrate: a unified registry of named integer counters and gauges
// that every model component (simt engine, memory hierarchy, register
// file, DRS control, DMK and TBC baselines) registers into under
// hierarchical paths such as "smx3/l1d/accesses", plus a ring-buffered
// per-epoch time-series (series.go) and a Chrome-trace exporter
// (trace.go).
//
// Design constraints, in order:
//
//   - Zero overhead on the simulated hot path. Components keep
//     incrementing the plain int64 fields of their existing Stats
//     structs; the registry only stores pointers (or closures) that are
//     read at sampling and snapshot time. Registering a counter adds no
//     indirection to the code that bumps it.
//   - Bit determinism. The registry is integer-only (floats are derived
//     downstream by the reports), registration and snapshot orders are
//     fixed, and the JSON encodings are canonical (sorted paths, no
//     map iteration anywhere in this package), so a metrics dump of a
//     deterministic-engine run is a byte-exact regression artifact.
//   - Single-goroutine discipline. A Registry, Series or Trace is owned
//     by the engine goroutine that samples it; none of the types lock.
//     The epoch-barrier engine samples only at barriers, when no SMX
//     worker is running.
package metrics

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// probe reads one registered metric's current value.
type probe func() int64

// Registry is an ordered collection of named integer metrics. Paths are
// slash-separated lowercase segments ("smx3/l1d/accesses"); duplicate
// registration panics (it is always a wiring bug).
type Registry struct {
	names  []string
	byName map[string]int
	probes []probe
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// validPath reports whether p is a well-formed metric path: non-empty
// slash-separated segments of [a-z0-9_] characters.
func validPath(p string) bool {
	if p == "" {
		return false
	}
	segStart := true
	for i := 0; i < len(p); i++ {
		c := p[i]
		switch {
		case c == '/':
			if segStart {
				return false // empty segment
			}
			segStart = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			segStart = false
		default:
			return false
		}
	}
	return !segStart
}

func (r *Registry) register(path string, fn probe) {
	if !validPath(path) {
		panic(fmt.Sprintf("metrics: invalid path %q (want slash-separated [a-z0-9_] segments)", path))
	}
	if _, dup := r.byName[path]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", path))
	}
	r.byName[path] = len(r.names)
	r.names = append(r.names, path)
	r.probes = append(r.probes, fn)
}

// Counter registers a metric backed by an int64 the component keeps
// incrementing; the registry reads *v at snapshot time.
func (r *Registry) Counter(path string, v *int64) {
	if v == nil {
		panic(fmt.Sprintf("metrics: nil counter %q", path))
	}
	r.register(path, func() int64 { return *v })
}

// Gauge registers a metric computed on demand by fn.
func (r *Registry) Gauge(path string, fn func() int64) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil gauge %q", path))
	}
	r.register(path, fn)
}

// Const registers a metric with a fixed value (run parameters such as
// the ray count, which belong in the dump for self-description).
func (r *Registry) Const(path string, v int64) {
	r.register(path, func() int64 { return v })
}

// RegisterStruct registers every exported integer field of the struct
// pointed to by p under prefix, naming each field by its lower-snake
// form ("WarpInstrs" -> prefix+"/warp_instrs"). Arrays of integers
// register one metric per element (prefix/field/0 ...); nested structs
// recurse with the field name as an extra path segment. Fields of other
// kinds (floats, strings, slices) are skipped: the registry is
// integer-only so dumps stay bit-exact. A `metrics:"-"` field tag skips
// the field; `metrics:"name"` overrides the derived name.
//
// The registered probes read the live fields through the pointer, so
// the component's ordinary struct updates are visible with no extra
// work on its side — this is the zero-overhead path for the scattered
// Stats structs the models already maintain.
func (r *Registry) RegisterStruct(prefix string, p any) {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: RegisterStruct(%q) needs a non-nil struct pointer, got %T", prefix, p))
	}
	r.registerStructValue(prefix, v.Elem())
}

func (r *Registry) registerStructValue(prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := snakeCase(f.Name)
		if tag, ok := f.Tag.Lookup("metrics"); ok {
			if tag == "-" {
				continue
			}
			name = tag
		}
		path := prefix + "/" + name
		fv := v.Field(i)
		switch f.Type.Kind() {
		case reflect.Int64, reflect.Int, reflect.Int32:
			r.registerIntValue(path, fv)
		case reflect.Array:
			switch f.Type.Elem().Kind() {
			case reflect.Int64, reflect.Int, reflect.Int32:
				for k := 0; k < fv.Len(); k++ {
					r.registerIntValue(fmt.Sprintf("%s/%d", path, k), fv.Index(k))
				}
			}
		case reflect.Struct:
			r.registerStructValue(path, fv)
		}
	}
}

// registerIntValue registers one addressable integer field.
func (r *Registry) registerIntValue(path string, fv reflect.Value) {
	if !fv.CanAddr() {
		panic(fmt.Sprintf("metrics: %q is not addressable", path))
	}
	if ptr, ok := fv.Addr().Interface().(*int64); ok {
		r.Counter(path, ptr)
		return
	}
	r.register(path, fv.Int) // int / int32 fields read through reflect
}

// snakeCase converts an exported Go field name to lower_snake_case:
// "WarpInstrs" -> "warp_instrs", "SIInstrs" -> "si_instrs",
// "L1TexMiss" -> "l1_tex_miss".
func snakeCase(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			prevLower := i > 0 && isLowerDigit(s[i-1])
			nextLower := i+1 < len(s) && s[i+1] >= 'a' && s[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			b.WriteByte(c - 'A' + 'a')
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

func isLowerDigit(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

// Snapshot captures every registered metric's value at one instant,
// sorted by path. It is the exchange format for dumps, golden files and
// determinism comparisons.
type Snapshot struct {
	Paths  []string
	Values []int64
}

// Snapshot reads every metric and returns the sorted capture.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Paths:  make([]string, len(r.names)),
		Values: make([]int64, len(r.names)),
	}
	order := make([]int, len(r.names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.names[order[a]] < r.names[order[b]] })
	for out, i := range order {
		s.Paths[out] = r.names[i]
		s.Values[out] = r.probes[i]()
	}
	return s
}

// Get returns the captured value at path.
func (s *Snapshot) Get(path string) (int64, bool) {
	i := sort.SearchStrings(s.Paths, path)
	if i < len(s.Paths) && s.Paths[i] == path {
		return s.Values[i], true
	}
	return 0, false
}

// MarshalJSON encodes the snapshot as a canonical flat JSON object:
// paths in sorted order, one numeric value each, no whitespace
// variance. The encoding is byte-identical for equal snapshots, so it
// doubles as a fingerprint and a golden-file format.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, p := range s.Paths {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%d", p, s.Values[i])
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON is intentionally not implemented: snapshots are a
// write-side artifact; comparisons happen on the canonical bytes.

// Diff returns a description of the first differing metric between two
// snapshots, or "" if they are identical. Used by determinism checks to
// name the exact counter that diverged.
func (s *Snapshot) Diff(o *Snapshot) string {
	i, j := 0, 0
	for i < len(s.Paths) && j < len(o.Paths) {
		a, b := s.Paths[i], o.Paths[j]
		switch {
		case a < b:
			return fmt.Sprintf("%s only in first snapshot", a)
		case a > b:
			return fmt.Sprintf("%s only in second snapshot", b)
		case s.Values[i] != o.Values[j]:
			return fmt.Sprintf("%s: %d vs %d", a, s.Values[i], o.Values[j])
		}
		i++
		j++
	}
	if i < len(s.Paths) {
		return fmt.Sprintf("%s only in first snapshot", s.Paths[i])
	}
	if j < len(o.Paths) {
		return fmt.Sprintf("%s only in second snapshot", o.Paths[j])
	}
	return ""
}

// Collector bundles the registry and the epoch time-series one observed
// run feeds. The engine samples Series at every epoch barrier; the
// registry is snapshotted once at end of run.
type Collector struct {
	Registry *Registry
	Series   *Series
}

// DefaultSeriesCap is the default ring capacity of the epoch
// time-series: enough for the scaled-down experiment runs to keep every
// epoch, while bounding memory on paper-scale runs (the ring keeps the
// newest samples and counts the dropped ones).
const DefaultSeriesCap = 1 << 14

// NewCollector creates a collector whose series ring holds up to
// seriesCap samples (<=0 selects DefaultSeriesCap).
func NewCollector(seriesCap int) *Collector {
	if seriesCap <= 0 {
		seriesCap = DefaultSeriesCap
	}
	return &Collector{Registry: NewRegistry(), Series: NewSeries(seriesCap)}
}
