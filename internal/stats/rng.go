// Package stats provides the deterministic random-number generation,
// probability distributions, histograms, and online summary statistics used
// throughout the simulation and the workload generators.
//
// Everything is seedable and reproducible: the same seed always yields the
// same stream, independent of Go version or platform, which underpins the
// determinism guarantees of the DES (see internal/sim).
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is not safe for concurrent use;
// the simulation is single-threaded by construction.
type RNG struct {
	s        [4]uint64
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded from the given seed. Distinct seeds give
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

// seeded returns the generator NewRNG(seed) points to, as a value.
func seeded(seed uint64) (r RNG) {
	// splitmix64 to spread the seed over the full state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent generator from r's stream, for handing a
// private stream to a sub-component without coupling their consumption.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller, one value per
// call; the spare is cached).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return u * f
		}
	}
}

// HashRNG returns a generator whose stream is a pure function of (seed, a,
// b). It is used to give every (item, pair, node) combination its own
// deterministic randomness regardless of execution order — for example the
// comparison time of pair (i, j) must not depend on which GPU runs it.
func HashRNG(seed uint64, a, b uint64) *RNG {
	return NewRNG(mix(mix(seed, a), b))
}

// HashSample returns d.Sample(HashRNG(seed, a, b)), bit for bit, without
// the generator reaching the heap: through the Dist interface it escapes,
// which cost the cost models one allocation per sampled duration. The
// distributions the cost models use are sampled from a generator on the
// stack; any other Dist takes the allocating path.
func HashSample(d Dist, seed uint64, a, b uint64) float64 {
	h := mix(mix(seed, a), b)
	switch d := d.(type) {
	case Normal:
		r := seeded(h)
		return d.Sample(&r)
	case LogNormal:
		r := seeded(h)
		return d.Sample(&r)
	}
	return d.Sample(NewRNG(h))
}

func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
