package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. N is the sample count behind a timing
// or a ratio; 0 marks a count or a constant. Q is the quantile of a tail
// percentile.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Q     float64
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the method Python's statistics.quantiles calls
// "inclusive"). xs is not modified; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// reportable says whether the q-quantile of n samples may be reported:
// a tail percentile counts only when at least ten samples lie beyond it,
// so p90 needs 100 samples and p99 1000. The median always counts.
func reportable(n int, q float64) bool {
	return q <= 0.5 || float64(n)*(1-q) >= 10-1e-9
}

// percentile returns the q-quantile of xs and whether it may be reported.
func percentile(xs []float64, q float64) (float64, bool) {
	if !reportable(len(xs), q) {
		return 0, false
	}
	return quantile(xs, q), true
}

// timing is the median of samples, reported with its sample count.
func timing(name, unit string, xs []float64) metric {
	return metric{Name: name, Value: median(xs), Unit: unit, N: len(xs)}
}

// tail is a tail percentile of samples. One with too few samples beyond
// it reports 0 and keeps its sample count, so the table can say why.
func tail(name, unit string, xs []float64, q float64) metric {
	v, _ := percentile(xs, q)
	return metric{Name: name, Value: v, Unit: unit, N: len(xs), Q: q}
}

// ratio divides two totals, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// totalAllocMiB is the process's cumulative heap allocation.
func totalAllocMiB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / mib
}

// resetPeakRSS returns the heap's free memory to the OS and restarts the
// resident-set high-water mark from what remains, so that peak_rss
// covers the timed ops, not the set-up passes before them.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// gcSample reads the runtime's cumulative GC counters; two samples give
// the collections and the share of CPU time spent in GC between them.
type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// sample is the cost of one op: host seconds and heap MiB allocated by
// the measured calls, not by the correctness check that follows them.
type sample struct{ secs, allocMiB float64 }

// measure runs fn and returns its host time and heap allocation.
func measure(fn func() error) (sample, error) {
	a0, t0 := totalAllocMiB(), time.Now()
	err := fn()
	return sample{time.Since(t0).Seconds(), totalAllocMiB() - a0}, err
}

// phase is the outcome of one timed loop of a workload.
type phase struct {
	opSecs    []float64 // host seconds per op
	opAlloc   []float64 // heap MiB per op
	wall      time.Duration
	attempted int // operations attempted (ops, or jobs for drsd-mix)
	failed    int // errors, refusals and correctness mismatches
	errs      []error
	gcCycles  float64
	gcCPUFrac float64
	extra     []metric // workload-specific metrics of this phase
}

func (p *phase) ops() int { return len(p.opSecs) }

// fail counts one failed operation.
func (p *phase) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err)
}

// loop is a closed loop of one client: op runs sequentially until the
// deadline, and at least once. op measures its own calls and checks
// their outputs; an error marks the op failed and the loop carries on.
func loop(deadline time.Time, op func(i int) (sample, error)) *phase {
	ph := &phase{}
	gc0, t0 := readGC(), time.Now()
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		s, err := op(i)
		ph.opSecs = append(ph.opSecs, s.secs)
		ph.opAlloc = append(ph.opAlloc, s.allocMiB)
		ph.attempted++
		if err != nil {
			ph.fail(err)
		}
	}
	ph.finish(gc0, t0)
	return ph
}

// finish records the loop's wall time and GC activity since the given
// starting readings.
func (p *phase) finish(gc0 gcSample, t0 time.Time) {
	p.wall = time.Since(t0)
	gc1 := readGC()
	p.gcCycles = gc1.cycles - gc0.cycles
	p.gcCPUFrac = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
}
