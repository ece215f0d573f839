package experiments

import (
	"repro/internal/cellsched"
	"repro/internal/scene"
)

// workloadKey identifies one workload build: the benchmark plus every
// Params field that shapes the render, BVH and trace capture. Bounce
// caps and device options only affect simulation downstream of the
// build, so they are not part of the key.
type workloadKey struct {
	Benchmark          scene.Benchmark
	Tris               int
	Width, Height, SPP int
}

// WorkloadCache shares workload builds (procedural scene + BVH + path
// traced ray streams) across runners. Figures 2/8/9/10/11 and Table 2
// simulate the same scenes at the same render parameters, so a suite
// run with one shared cache builds each scene exactly once instead of
// once per figure. Safe for concurrent use by scheduler cells; builds
// are singleflighted (see cellsched.Cache). Workloads are immutable
// after construction, which is what makes sharing them safe.
type WorkloadCache struct {
	cache *cellsched.Cache[workloadKey, *Workload]
}

// NewWorkloadCache returns an empty cache.
func NewWorkloadCache() *WorkloadCache {
	return &WorkloadCache{cache: cellsched.NewCache[workloadKey, *Workload]()}
}

// Get returns the workload for benchmark b at p's render parameters,
// building it on the key's first request.
func (wc *WorkloadCache) Get(b scene.Benchmark, p Params) (*Workload, error) {
	key := workloadKey{
		Benchmark: b,
		Tris:      p.Tris,
		Width:     p.Width, Height: p.Height, SPP: p.SPP,
	}
	return wc.cache.Get(key, func() (*Workload, error) {
		return BuildWorkload(b, p)
	})
}

// Stats reports cache traffic; in a shared-cache suite run Builds must
// equal the number of distinct (scene, render params) workloads.
func (wc *WorkloadCache) Stats() cellsched.CacheStats {
	return wc.cache.Stats()
}
