// Package xrand provides a small, fast, allocation-free pseudo-random
// number generator for use inside scheduler hot paths.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that any 64-bit seed — including zero — produces a
// well-mixed initial state. Each scheduler worker owns one generator, so
// no locking is required and runs are reproducible given a seed.
//
// This package intentionally does not implement math/rand.Source: the
// schedulers need only a handful of operations (bounded integers,
// Bernoulli trials, unit floats) and calling them directly avoids
// interface dispatch on the hot path.
package xrand

import "math/bits"

// Rand is a xoshiro256** generator. The zero value is NOT valid; use New.
// A Rand must not be shared between goroutines without synchronization.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the splitmix64 state and returns the next value.
// Used only for seeding.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams; the same seed yields the same stream.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a 64-bit seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro256** requires a nonzero state; splitmix64 of any seed is
	// astronomically unlikely to produce all zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
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

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift reduction, which avoids division on
// the hot path (the rejection loop almost never iterates for small n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		// Rejection zone: recompute threshold only when needed.
		thresh := -bound % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p. p outside [0,1] saturates.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// OneIn returns true with probability 1/n. For n that is a power of two
// this compiles to a single mask test. It panics if n <= 0.
func (r *Rand) OneIn(n int) bool {
	if n <= 0 {
		panic("xrand: OneIn called with n <= 0")
	}
	if n&(n-1) == 0 {
		return r.Uint64()&uint64(n-1) == 0
	}
	return r.Intn(n) == 0
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inversion sampling. Used by the balls-into-bins continuous model
// (§3 of the paper), where label gaps are Exp(π_i).
func (r *Rand) ExpFloat64() float64 {
	// -ln(U) with U in (0, 1]. Avoid U == 0.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mathLog(u)
}
