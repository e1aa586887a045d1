// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by all sampling code in this repository.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by its authors. It is not safe for concurrent use; concurrent
// builders give every node its own stream seeded by MixSeed, or derive
// child streams with Split; both decorrelate seeds with SplitMix64.
// Determinism matters here: the SLING preprocessing experiments (Figure 5
// of the paper, ten index rebuilds) must be exactly reproducible from a
// seed.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** generator.
// The zero value is not valid; use New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via SplitMix64 so that nearby seeds
// yield uncorrelated streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state as if freshly created with New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro requires a non-zero state; SplitMix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// MixSeed derives the seed of item v's stream from a base seed with a
// SplitMix64 finalizer, so sampling for node v depends only on
// (seed, v) and never on which worker or in what order v is processed.
func MixSeed(seed uint64, v int) uint64 {
	z := seed ^ (uint64(v)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

// Split derives an independent child generator. The child stream is a
// deterministic function of the parent state, and the parent advances, so
// successive Split calls return distinct streams.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of a 128-bit product.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
