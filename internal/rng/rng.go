// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every stochastic component of an experiment (traffic generation, allocation
// tie-breaking, fault sampling) draws from its own seeded stream so that runs
// are bit-reproducible regardless of execution order, and so that changing
// one component's consumption pattern does not perturb the others.
//
// The generator is xoshiro256**, seeded through SplitMix64 as its authors
// recommend. Both algorithms are public domain (Blackman & Vigna).
package rng

import "math/bits"

// SplitMix64 advances the given state and returns the next 64-bit output.
// It is used for seeding and for cheap one-shot hashes.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes a single 64-bit value to a well-distributed 64-bit value.
func Mix64(x uint64) uint64 {
	s := x
	return SplitMix64(&s)
}

// Rand is a xoshiro256** generator. The zero value is invalid; obtain
// instances through New or NewStream.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Any seed, including
// zero, yields a valid, full-period state.
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// StreamSeed derives the seed of substream id of the given base seed.
// Distinct ids yield statistically independent seeds; it is the pure-value
// form of NewStream, used when a seed must be recorded or passed on (for
// example one seed per job of a parallel experiment grid).
func StreamSeed(seed, id uint64) uint64 {
	return seed ^ Mix64(id+0x517cc1b727220a95)
}

// NewStream returns a generator for substream id of the given seed. Distinct
// ids yield statistically independent sequences; use one stream per
// stochastic component.
func NewStream(seed, id uint64) *Rand {
	return New(StreamSeed(seed, id))
}

// Seed resets the generator state from seed via SplitMix64.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
}

// State returns the generator's four raw state words. Serializing the
// state (rather than the seed) lets a consumer be resumed mid-stream:
// SetState restores the exact point in the sequence, which a re-seed
// cannot.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores raw state words captured by State. An all-zero state
// is the one invalid xoshiro256** state (the generator would emit zeros
// forever), so it is rejected by re-seeding from zero instead.
func (r *Rand) SetState(s [4]uint64) {
	if s == ([4]uint64{}) {
		r.Seed(0)
		return
	}
	r.s = s
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Perm returns a pseudo-random permutation of [0, n) as a fresh slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, with the
// Fisher-Yates algorithm.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
