// Package trace defines the per-bounce ray stream format. The paper
// treats shading and ray generation as a black box: it captures traces
// of rays from PBRT and streams them into the ray tracing kernels.
// This package is our equivalent — the renderer records the rays of
// each bounce, and the simulated kernels consume those streams.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/geom"
	"repro/internal/vec"
)

// MaxBounces is the paper's maximum path depth.
const MaxBounces = 8

// Stream is the set of rays traced at one bounce depth.
type Stream struct {
	Scene  string
	Bounce int // 1-based bounce number (B1 = primary rays)
	Rays   []geom.Ray
}

// Set holds the streams of all bounces for one render.
type Set struct {
	Scene   string
	Streams [MaxBounces]Stream
}

// TotalRays returns the total number of rays over all bounces.
func (s *Set) TotalRays() int {
	n := 0
	for _, st := range s.Streams {
		n += len(st.Rays)
	}
	return n
}

// Bounce returns the stream for 1-based bounce b.
func (s *Set) Bounce(b int) *Stream {
	if b < 1 || b > MaxBounces {
		panic(fmt.Sprintf("trace: bounce %d out of range", b))
	}
	return &s.Streams[b-1]
}

const magic = uint32(0x44525331) // "DRS1"

// Write serializes the stream in a compact little-endian binary format.
func (s *Stream) Write(w io.Writer) error {
	hdr := struct {
		Magic  uint32
		Bounce uint32
		Count  uint64
	}{magic, uint32(s.Bounce), uint64(len(s.Rays))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	name := []byte(s.Scene)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(name))); err != nil {
		return fmt.Errorf("trace: write name len: %w", err)
	}
	if _, err := w.Write(name); err != nil {
		return fmt.Errorf("trace: write name: %w", err)
	}
	buf := make([]float32, 0, 8*len(s.Rays))
	for _, r := range s.Rays {
		buf = append(buf,
			r.Origin.X, r.Origin.Y, r.Origin.Z,
			r.Dir.X, r.Dir.Y, r.Dir.Z,
			r.TMin, r.TMax)
	}
	if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
		return fmt.Errorf("trace: write rays: %w", err)
	}
	return nil
}

// WriteSet serializes all non-empty bounce streams of a set,
// length-prefixed, so a whole render's traces travel as one file.
func (s *Set) WriteSet(w io.Writer) error {
	n := uint32(0)
	for _, st := range s.Streams {
		if len(st.Rays) > 0 {
			n++
		}
	}
	if err := binary.Write(w, binary.LittleEndian, n); err != nil {
		return fmt.Errorf("trace: write set header: %w", err)
	}
	for i := range s.Streams {
		if len(s.Streams[i].Rays) == 0 {
			continue
		}
		if err := s.Streams[i].Write(w); err != nil {
			return err
		}
	}
	return nil
}

// Coherence estimates the directional coherence of consecutive ray
// groups of the given size: the mean over groups of the average dot
// product between each ray and the group's mean direction. Primary rays
// score near 1; randomized secondary rays score much lower. Used by
// tests and the divergence example to verify the workload matches the
// paper's premise.
func (s *Stream) Coherence(groupSize int) float64 {
	if groupSize <= 0 || len(s.Rays) == 0 {
		return 0
	}
	var total float64
	groups := 0
	for start := 0; start+groupSize <= len(s.Rays); start += groupSize {
		var mean vec.V3
		for i := start; i < start+groupSize; i++ {
			mean = mean.Add(s.Rays[i].Dir)
		}
		if mean.Len() == 0 {
			continue
		}
		mean = mean.Norm()
		var acc float64
		for i := start; i < start+groupSize; i++ {
			acc += float64(s.Rays[i].Dir.Dot(mean))
		}
		total += acc / float64(groupSize)
		groups++
	}
	if groups == 0 {
		return 0
	}
	return total / float64(groups)
}
