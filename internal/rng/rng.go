// Package rng provides small, fast, deterministic pseudo-random number
// generators for the linkpred library.
//
// Every stochastic component in this repository (hash-family seeding,
// synthetic graph generation, sampling baselines, query-pair selection)
// draws its randomness from this package through an explicit 64-bit seed,
// so that every experiment, test, and example is exactly reproducible.
// Nothing in this package (or anywhere else in the library) reads the
// wall clock or the global math/rand state.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit generator with a single word of state.
//     It is primarily used to expand one user seed into many independent
//     sub-seeds (e.g. for a family of hash functions).
//   - Xoshiro256: xoshiro256**, a high-quality general-purpose generator
//     used by the synthetic graph generators and the sampling baselines.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood.
// It has 64 bits of state, passes BigCrush, and — crucially for seeding —
// is an equidistributed bijection of the 64-bit integers, so expanding a
// seed through it never produces colliding sub-seeds for distinct inputs.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x without advancing any state.
// It is a bijection on uint64 with strong avalanche behaviour and is the
// mixing core reused by package hashing.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna.
// It has 256 bits of state, a period of 2^256−1, and excellent
// statistical quality; it is the workhorse generator for the synthetic
// stream generators.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a Xoshiro256 whose state is expanded from seed
// via SplitMix64, following the initialisation recommended by the
// algorithm's authors. Any seed, including 0, yields a valid generator:
// the splitmix expansion cannot produce the all-zero state.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the sequence.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1). It uses the top 53 bits of
// a Uint64 draw, so every representable value has equal probability.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0 (programmer
// error, mirroring math/rand). Lemire's nearly-divisionless method keeps
// the draw unbiased without a modulo in the common case.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(x.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	v := x.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = x.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. Used by generators that perturb structural parameters.
func (x *Xoshiro256) NormFloat64() float64 {
	for {
		u := 2*x.Float64() - 1
		v := 2*x.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle performs an in-place Fisher–Yates shuffle over n elements,
// calling swap for each exchange, mirroring math/rand.Shuffle.
func (x *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}
