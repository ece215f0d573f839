package cases

import "sync"

var hits int

// capturedWrite assigns a captured local and a package var from a
// goroutine.
func capturedWrite() int {
	total := 0
	done := make(chan struct{})
	go func() {
		total = 42 // want goroutine-captured-write
		hits += 1  // want goroutine-captured-write
		close(done)
	}()
	<-done
	return total
}

// indexWrite writes disjoint elements, one per worker.
func indexWrite(n int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = i * i
		}(i)
	}
	wg.Wait()
	return out
}

// localWrite assigns only the literal's own parameter and locals,
// including one that shadows a captured name.
func localWrite(total int) {
	go func(k int) {
		n := 0
		n = 2
		k = n
		total := k
		total = 3
		_ = total
	}(total)
}

// nestedGo writes a captured variable from a goroutine inside a
// goroutine: reported once, by the inner literal.
func nestedGo() int {
	var v int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		go func() {
			v = 1 // want goroutine-captured-write
			wg.Done()
		}()
	}()
	wg.Wait()
	return v
}
