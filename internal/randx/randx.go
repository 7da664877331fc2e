// Package randx provides a small, deterministic, splittable random number
// generator used by every randomized component in this repository.
//
// The DAC'14 implementation of UniGen uses C++ std::random_device as its
// entropy source. For reproducible experiments we substitute a seeded
// SplitMix64 generator (Steele, Lea, Flood; JPDC 2014). SplitMix64 passes
// BigCrush on its 64-bit outputs and is more than adequate for drawing
// XOR-constraint coefficients, which only need unbiased independent bits.
package randx

import "math/bits"

// RNG is a deterministic pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer New for explicit seeding.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State returns the generator's whole state: New(r.State()) continues
// r's stream exactly where r stands, so a paused computation can
// persist its RNG as one integer.
func (r *RNG) State() uint64 { return r.state }

// Uint64 returns the next 64 pseudo-random bits (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent
// of the parent's. It is used to hand sub-components their own streams so
// that adding randomness consumption in one component does not perturb
// another. Split advances the parent; for a splitting scheme that does
// not depend on how far the parent has been consumed, use Stream.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// Stream returns the i-th child generator of the family rooted at
// master, without constructing or advancing a master generator. The
// child's seed is the (i+1)-th output of a SplitMix64 generator seeded
// with master, addressable in O(1) by index. (Split is the sequential
// sibling of this scheme; its children additionally XOR a constant
// into the seed, so the two families are distinct.) Distinct (master,
// i) pairs yield statistically independent streams.
//
// This is the splittable-seed scheme behind parallel sampling: round i
// of a run is executed with Stream(masterSeed, i) no matter which
// worker runs it, which is what makes the sample multiset reproducible
// for a fixed master seed regardless of worker count or scheduling.
func Stream(master, i uint64) *RNG {
	z := master + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return New(z ^ (z >> 31))
}

// Bool returns a uniformly random bit.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless rejection method, so the result is
// exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bits fills dst with n random bits packed little-endian into bytes.
func (r *RNG) Bits(dst []byte, n int) {
	for i := 0; i < len(dst); i++ {
		dst[i] = 0
	}
	for i := 0; i < n; i += 64 {
		w := r.Uint64()
		for b := 0; b < 64 && i+b < n; b++ {
			if w&(1<<uint(b)) != 0 {
				dst[(i+b)/8] |= 1 << uint((i+b)%8)
			}
		}
	}
}
