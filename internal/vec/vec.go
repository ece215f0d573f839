// Package vec provides the small 3-component vector algebra used by the
// ray tracing substrates. Vectors are value types built on float32 to
// match the arithmetic width of the simulated GPU kernels.
package vec

import "math"

// V3 is a 3-component single-precision vector.
type V3 struct {
	X, Y, Z float32
}

// New constructs a vector from its components.
func New(x, y, z float32) V3 { return V3{x, y, z} }

// Splat returns a vector with all components equal to s.
func Splat(s float32) V3 { return V3{s, s, s} }

// Add returns a + b.
func (a V3) Add(b V3) V3 { return V3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V3) Sub(b V3) V3 { return V3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Mul returns the component-wise product a * b.
func (a V3) Mul(b V3) V3 { return V3{a.X * b.X, a.Y * b.Y, a.Z * b.Z} }

// Scale returns a * s.
func (a V3) Scale(s float32) V3 { return V3{a.X * s, a.Y * s, a.Z * s} }

// Neg returns -a.
func (a V3) Neg() V3 { return V3{-a.X, -a.Y, -a.Z} }

// Dot returns the inner product of a and b.
func (a V3) Dot(b V3) float32 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a × b.
func (a V3) Cross(b V3) V3 {
	return V3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean length of a.
func (a V3) Len() float32 { return float32(math.Sqrt(float64(a.Dot(a)))) }

// Len2 returns the squared length of a.
func (a V3) Len2() float32 { return a.Dot(a) }

// Norm returns a scaled to unit length. The zero vector is returned
// unchanged so callers need not special-case degenerate inputs.
func (a V3) Norm() V3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Min returns the component-wise minimum of a and b.
func (a V3) Min(b V3) V3 {
	return V3{min32(a.X, b.X), min32(a.Y, b.Y), min32(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func (a V3) Max(b V3) V3 {
	return V3{max32(a.X, b.X), max32(a.Y, b.Y), max32(a.Z, b.Z)}
}

// Axis returns component i (0=X, 1=Y, 2=Z).
func (a V3) Axis(i int) float32 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	default:
		return a.Z
	}
}

// MaxAxis returns the index of the largest component.
func (a V3) MaxAxis() int {
	if a.X >= a.Y && a.X >= a.Z {
		return 0
	}
	if a.Y >= a.Z {
		return 1
	}
	return 2
}

// OrthoBasis builds an orthonormal basis (t, b) around unit normal n
// using the branchless method of Duff et al.
func OrthoBasis(n V3) (t, b V3) {
	sign := float32(1)
	if n.Z < 0 {
		sign = -1
	}
	a := -1 / (sign + n.Z)
	c := n.X * n.Y * a
	t = V3{1 + sign*n.X*n.X*a, sign * c, -sign * n.X}
	b = V3{c, sign + n.Y*n.Y*a, -n.Y}
	return t, b
}

// Reflect returns direction d mirrored about unit normal n.
func Reflect(d, n V3) V3 { return d.Sub(n.Scale(2 * d.Dot(n))) }

func min32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
