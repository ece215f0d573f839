// Package reach holds the unreachable check's cases: functions the
// specimen's binary reaches only in ways a call graph can miss, and two
// that nothing reaches.
package reach

import "fmt"

// Level is printed through fmt, which calls String through
// fmt.Stringer; no module code calls it.
type Level int

func (l Level) String() string { return fmt.Sprintf("level %d", int(l)) }

// Hooks holds a callback, as simt.Hooks does.
type Hooks struct {
	OnTick func()
}

type counter struct{ n int }

// tick is reached only as a method value stored in a Hooks field.
func (c *counter) tick() { c.n++ }

// Serve is what cmd/specimen runs.
func Serve() Level {
	c := &counter{}
	h := Hooks{OnTick: c.tick}
	h.OnTick()
	return Level(c.n)
}

// Validate is a checker only tests call.
//
//drslint:allow unreachable -- stands in for bvh.(*BVH).Validate
func Validate(n int) error { return checkRange(n) }

// checkRange is reached only from the allowed Validate.
func checkRange(n int) error {
	if n < 0 {
		return fmt.Errorf("reach: %d < 0", n)
	}
	return nil
}

// BenchOnly is called only by the root module under bench/.
func BenchOnly() int { return 2 }

// Shape is an interface the root module calls through. Its method
// names a specimen type, so only the specimen's own Shape, not the copy
// the root module imports, has square as an implementation.
type Shape interface{ Area() Level }

type square struct{ side int }

// Area is reached only through Shape, from the root module.
func (s square) Area() Level { return Level(s.side * s.side) }

// NewShape is called only by the root module.
func NewShape(side int) Shape { return square{side} }

// Lerp is called by nothing.
func Lerp(a, b, t float32) float32 { // want unreachable
	return a + (b-a)*clamp(t)
}

// clamp is reached only from Lerp.
func clamp(t float32) float32 { // want unreachable
	return min(max(t, 0), 1)
}
