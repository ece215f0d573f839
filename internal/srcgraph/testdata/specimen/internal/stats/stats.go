// Package stats seeds the metrics-registration analyzer: Registered is
// wired up (and carries Inner through a nested exported field), Orphan
// is the gap the analyzer must flag.
package stats

import "specimen/internal/metrics"

// Inner is registered transitively through Registered.
type Inner struct {
	N int64 `metrics:"n"`
}

// Registered is handed to RegisterStruct in Wire.
type Registered struct {
	Hits  int64 `metrics:"hits"`
	Inner Inner
}

// Orphan carries metrics tags but is never registered.
type Orphan struct { // want metrics-registration
	Misses int64 `metrics:"misses"`
}

// Wire registers the stats structs.
func Wire(r *metrics.Registry) {
	r.RegisterStruct("spec", &Registered{})
}
