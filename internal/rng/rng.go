// Package rng provides the deterministic random number sources used by
// the renderer: a PCG32 generator for decorrelated per-path randomness
// and a scrambled Halton sequence for low-discrepancy pixel sampling
// (the paper renders with PBRT's low-discrepancy sampler).
package rng

// PCG32 is the PCG-XSH-RR 32-bit generator (O'Neill 2014). It is small,
// fast and statistically strong enough for Monte Carlo rendering.
type PCG32 struct {
	state uint64
	inc   uint64
}

// NewPCG32 seeds a generator from a seed and a stream selector.
// Distinct streams produce decorrelated sequences.
func NewPCG32(seed, stream uint64) *PCG32 {
	p := &PCG32{}
	p.Seed(seed, stream)
	return p
}

// Seed reseeds p in place: it then yields NewPCG32(seed, stream)'s
// sequence. A generator held by value and reseeded per use stays off
// the heap.
func (p *PCG32) Seed(seed, stream uint64) {
	*p = PCG32{inc: stream<<1 | 1}
	p.Next()
	p.state += seed
	p.Next()
}

// Next returns the next 32 random bits.
func (p *PCG32) Next() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Float32 returns a uniform sample in [0, 1).
func (p *PCG32) Float32() float32 {
	// 24 mantissa bits keep the result strictly below 1.
	return float32(p.Next()>>8) * (1.0 / (1 << 24))
}

// IntN returns a uniform integer in [0, n). n must be positive.
func (p *PCG32) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN needs positive n")
	}
	// Lemire-style rejection-free bound is overkill here; modulo bias is
	// negligible for the small n used by the renderer, but we use the
	// multiply-shift trick anyway because it is cheap.
	return int(uint64(p.Next()) * uint64(n) >> 32)
}

// primes holds the radical-inverse bases for the Halton sampler.
var primes = [...]uint32{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}

// RadicalInverse returns the base-b radical inverse of i, the core of
// Halton low-discrepancy sequences.
func RadicalInverse(baseIndex int, i uint64) float32 {
	b := uint64(primes[baseIndex%len(primes)])
	invB := 1.0 / float64(b)
	var rev uint64
	invBN := 1.0
	for i > 0 {
		next := i / b
		digit := i - next*b
		rev = rev*b + digit
		invBN *= invB
		i = next
	}
	v := float64(rev) * invBN
	if v >= 1 {
		v = 0.99999994
	}
	return float32(v)
}

// Halton produces low-discrepancy sample vectors. Dimension d of sample
// index i is the base-primes[d] radical inverse of i with a per-pixel
// Cranley-Patterson rotation so different pixels are decorrelated.
type Halton struct {
	index  uint64
	dim    int
	rotate [len(primes)]float32
}

// Reset (re)initialises h as the sampler of a pixel-distinct stream:
// the rotation offsets are drawn from a PCG stream keyed by the pixel.
// A zero Halton has no rotation until it is Reset.
func (h *Halton) Reset(pixelSeed uint64) {
	var p PCG32
	p.Seed(pixelSeed, 0x9e3779b97f4a7c15)
	h.index, h.dim = 0, 0
	for i := range h.rotate {
		h.rotate[i] = p.Float32()
	}
}

// StartSample positions the sampler at sample index i, dimension 0.
func (h *Halton) StartSample(i uint64) {
	h.index = i
	h.dim = 0
}

// Next1D returns the next dimension of the current sample vector.
func (h *Halton) Next1D() float32 {
	d := h.dim
	h.dim++
	v := RadicalInverse(d, h.index) + h.rotate[d%len(primes)]
	if v >= 1 {
		v -= 1
	}
	return v
}

// Next2D returns the next two dimensions.
func (h *Halton) Next2D() (float32, float32) {
	return h.Next1D(), h.Next1D()
}
