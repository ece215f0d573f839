package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func approxV(a, b V3, eps float32) bool {
	return approx(a.X, b.X, eps) && approx(a.Y, b.Y, eps) && approx(a.Z, b.Z, eps)
}

func TestAddSub(t *testing.T) {
	a := New(1, 2, 3)
	b := New(4, -5, 6)
	if got := a.Add(b); got != New(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
}

func TestMulScaleNeg(t *testing.T) {
	a := New(1, -2, 3)
	if got := a.Mul(New(2, 3, -1)); got != New(2, -6, -3) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2); got != New(2, -4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != New(-1, 2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if x.Dot(y) != 0 || x.Dot(x) != 1 {
		t.Errorf("Dot basis failed")
	}
	if x.Cross(y) != z {
		t.Errorf("x cross y = %v", x.Cross(y))
	}
	if y.Cross(z) != x {
		t.Errorf("y cross z = %v", y.Cross(z))
	}
}

func TestLenNorm(t *testing.T) {
	a := New(3, 4, 0)
	if a.Len() != 5 {
		t.Errorf("Len = %v", a.Len())
	}
	if a.Len2() != 25 {
		t.Errorf("Len2 = %v", a.Len2())
	}
	n := a.Norm()
	if !approx(n.Len(), 1, 1e-6) {
		t.Errorf("Norm length = %v", n.Len())
	}
	zero := V3{}
	if zero.Norm() != zero {
		t.Errorf("zero Norm changed: %v", zero.Norm())
	}
}

func TestMinMax(t *testing.T) {
	a := New(1, 5, -2)
	b := New(3, 2, -1)
	if a.Min(b) != New(1, 2, -2) {
		t.Errorf("Min = %v", a.Min(b))
	}
	if a.Max(b) != New(3, 5, -1) {
		t.Errorf("Max = %v", a.Max(b))
	}
}

func TestAxisHelpers(t *testing.T) {
	a := New(7, 8, 9)
	for i := 0; i < 3; i++ {
		want := []float32{7, 8, 9}[i]
		if a.Axis(i) != want {
			t.Errorf("Axis(%d) = %v", i, a.Axis(i))
		}
	}
	if New(1, 2, 3).MaxAxis() != 2 || New(5, 2, 3).MaxAxis() != 0 || New(1, 9, 3).MaxAxis() != 1 {
		t.Errorf("MaxAxis wrong")
	}
}

func TestReflect(t *testing.T) {
	d := New(1, -1, 0).Norm()
	n := New(0, 1, 0)
	r := Reflect(d, n)
	if !approxV(r, New(1, 1, 0).Norm(), 1e-6) {
		t.Errorf("Reflect = %v", r)
	}
}

func TestOrthoBasis(t *testing.T) {
	dirs := []V3{
		New(0, 0, 1), New(0, 0, -1), New(1, 0, 0),
		New(0.3, -0.5, 0.8).Norm(), New(-0.7, 0.7, 0.14).Norm(),
	}
	for _, n := range dirs {
		tt, b := OrthoBasis(n)
		if !approx(tt.Len(), 1, 1e-5) || !approx(b.Len(), 1, 1e-5) {
			t.Errorf("basis not unit for %v: %v %v", n, tt.Len(), b.Len())
		}
		if !approx(tt.Dot(n), 0, 1e-5) || !approx(b.Dot(n), 0, 1e-5) || !approx(tt.Dot(b), 0, 1e-5) {
			t.Errorf("basis not orthogonal for %v", n)
		}
	}
}

// Property: dot product is commutative and distributes over addition.
func TestQuickDotProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float32) bool {
		a, b, c := New(ax, ay, az), New(bx, by, bz), New(cx, cy, cz)
		if a.Dot(b) != b.Dot(a) {
			return false
		}
		lhs := float64(a.Dot(b.Add(c)))
		rhs := float64(a.Dot(b)) + float64(a.Dot(c))
		return math.Abs(lhs-rhs) <= 1e-2*(1+math.Abs(lhs))
	}
	cfg := &quick.Config{MaxCount: 200, Values: smallVecValues(9)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: cross product is orthogonal to both operands.
func TestQuickCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float32) bool {
		a, b := New(ax, ay, az), New(bx, by, bz)
		c := a.Cross(b)
		scale := a.Len() * b.Len()
		if scale == 0 {
			return true
		}
		return math.Abs(float64(c.Dot(a)/scale)) < 1e-3 && math.Abs(float64(c.Dot(b)/scale)) < 1e-3
	}
	cfg := &quick.Config{MaxCount: 200, Values: smallVecValues(6)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Min/Max bracket both inputs component-wise.
func TestQuickMinMaxBracket(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float32) bool {
		a, b := New(ax, ay, az), New(bx, by, bz)
		lo, hi := a.Min(b), a.Max(b)
		for i := 0; i < 3; i++ {
			if lo.Axis(i) > a.Axis(i) || lo.Axis(i) > b.Axis(i) {
				return false
			}
			if hi.Axis(i) < a.Axis(i) || hi.Axis(i) < b.Axis(i) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: smallVecValues(6)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// smallVecValues generates n bounded float32 arguments so products stay
// within float32 precision for the property checks.
func smallVecValues(n int) func(args []reflect.Value, rand *rand.Rand) {
	return func(args []reflect.Value, rnd *rand.Rand) {
		for i := 0; i < n; i++ {
			args[i] = reflect.ValueOf(float32(rnd.Float64()*200 - 100))
		}
	}
}
