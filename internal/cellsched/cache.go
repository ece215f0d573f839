package cellsched

import "sync"

// CacheStats counts Cache traffic. Builds always equals Misses: every
// miss builds exactly once, and concurrent requesters of an in-flight
// key block on that one build (and count as hits).
type CacheStats struct {
	Hits   int64
	Misses int64
	Builds int64
}

// Cache is a build-once, keep-forever cache for expensive shared
// inputs (scene workloads: render + BVH + trace capture). It is safe
// for concurrent use by cells: the first requester of a key runs the
// build while later requesters block until it completes, so a value is
// built exactly once no matter how many cells want it or how they are
// scheduled. Build errors are cached like values — every requester of
// a failed key gets the same error, deterministically.
//
// Values must be treated as immutable once returned: cells share them
// concurrently.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*cacheEntry[V]
	stats   CacheStats
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// NewCache returns an empty cache.
func NewCache[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{entries: make(map[K]*cacheEntry[V])}
}

// Get returns the value for key, running build to produce it if this is
// the key's first request. Concurrent Gets of the same key share one
// build.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry[V]{}
		c.entries[key] = e
		c.stats.Misses++
		c.stats.Builds++
	} else {
		c.stats.Hits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// Stats returns a snapshot of the hit/miss/build counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
