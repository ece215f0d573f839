// Package camera provides the pinhole camera that generates primary
// rays. Primary rays from a pinhole camera are coherent, which is the
// property the paper relies on when explaining why bounce #1 has high
// SIMD efficiency.
package camera

import (
	"math"

	"repro/internal/geom"
	"repro/internal/vec"
)

// Pinhole is a simple perspective camera.
type Pinhole struct {
	origin     vec.V3
	lowerLeft  vec.V3
	horizontal vec.V3
	vertical   vec.V3
	width      int
	height     int
}

// New creates a pinhole camera looking from `from` toward `at`, with
// `up` as the up hint, a vertical field of view in degrees, and the
// image resolution.
func New(from, at, up vec.V3, vfovDeg float64, width, height int) *Pinhole {
	aspect := float64(width) / float64(height)
	theta := vfovDeg * math.Pi / 180
	halfH := float32(math.Tan(theta / 2))
	halfW := float32(aspect) * halfH
	w := from.Sub(at).Norm()
	u := up.Cross(w).Norm()
	v := w.Cross(u)
	return &Pinhole{
		origin:     from,
		lowerLeft:  from.Sub(u.Scale(halfW)).Sub(v.Scale(halfH)).Sub(w),
		horizontal: u.Scale(2 * halfW),
		vertical:   v.Scale(2 * halfH),
		width:      width,
		height:     height,
	}
}

// Ray generates the primary ray through pixel (px, py) at subpixel
// offset (sx, sy) in [0, 1).
func (c *Pinhole) Ray(px, py int, sx, sy float32) geom.Ray {
	s := (float32(px) + sx) / float32(c.width)
	t := 1 - (float32(py)+sy)/float32(c.height)
	dir := c.lowerLeft.
		Add(c.horizontal.Scale(s)).
		Add(c.vertical.Scale(t)).
		Sub(c.origin).Norm()
	return geom.NewRay(c.origin, dir)
}
