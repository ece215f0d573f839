package service

import "time"

// The six hazards below sit outside the determinism cone: no engine or
// harness entry point reaches this file. The source lint must report
// each one anyway, without a witness chain. The last three live in a
// package-level initializer, which no function body contains.

// zones is an untyped package map var: only its initializer says it
// is a map.
var zones = map[string]int{"utc": 0, "cet": 1}

var (
	started = time.Now() // want wallclock

	zoneCount = func() int {
		n := 0
		for range zones { // want map-range
			n++
		}
		return n
	}()

	ready = func() bool {
		ok := false
		done := make(chan struct{})
		go func() {
			ok = true // want goroutine-captured-write
			close(done)
		}()
		<-done
		return ok
	}()
)

// tally ranges over a map that arrives as a parameter.
func tally(m map[string]int) int {
	sum := 0
	for _, v := range m { // want map-range
		sum += v
	}
	return sum
}

func snapshot() map[string]int { return zones }

// first ranges over a map a call returns.
func first() string {
	for k := range snapshot() { // want map-range
		return k
	}
	return ""
}

// lastSeen writes a captured variable from a goroutine.
func lastSeen() int64 {
	var last int64
	done := make(chan struct{})
	go func() {
		last = started.UnixNano() // want goroutine-captured-write
		close(done)
	}()
	<-done
	return last + int64(zoneCount+tally(zones)+len(first()))
}
