// Package service clones the JobSpec/Canonical shape so the spec-hash
// drift analyzer has pinned positive and negative cases.
package service

import "encoding/json"

// JobSpec is content-addressed: Canonical's bytes are hashed into the
// job's identity. Debug is deliberately excluded from the encoding —
// the drift the analyzer must flag.
type JobSpec struct {
	Scene string `json:"scene"`
	Seed  int64  `json:"seed"`
	Debug string `json:"-"` // want spec-hash
}

// Canonical returns the canonical encoding of the spec.
func (s *JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}

// WireSpec is the projection FullSpec.Canonical actually encodes; it
// deliberately drops Extra.
type WireSpec struct {
	Scene string `json:"scene"`
}

// FullSpec has a field its projection misses — the analyzer must name
// Extra.
type FullSpec struct {
	Scene string `json:"scene"`
	Extra int    `json:"extra"` // want spec-hash
}

// Canonical encodes the projection, not the spec itself.
func (s *FullSpec) Canonical() []byte {
	w := WireSpec{Scene: s.Scene}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err)
	}
	return b
}
