package cases

import (
	"math/rand"
	"time"
)

// timerSurface reads the clock twice on one line and schedules against
// it twice; the Stop method is not the package API.
func timerSurface(d time.Duration) {
	_ = time.Since(time.Now()) // want wallclock wallclock
	t := time.NewTimer(d)      // want wallclock
	defer t.Stop()
	<-time.Tick(d) // want wallclock
}

func init() {
	_ = time.Now() // want wallclock
}

// globalRand draws from the process-seeded source.
func globalRand() int {
	return rand.Intn(10) // want global-rand
}

// seededRand draws from its own seeded source.
func seededRand() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10)
}
