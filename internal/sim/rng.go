package sim

import "math/bits"

// RNG is a small, fast, deterministic random number generator (splitmix64).
// Simulations derive all randomness from one seeded RNG so runs are exactly
// reproducible; math/rand's global state is deliberately avoided.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be non-zero. Unlike
// Uint64() % n — whose low residues are overrepresented by up to one part
// in 2^64/n — it is exactly uniform, using Lemire's widening-multiply
// rejection method (one 64×64→128 multiply, <1 retry expected).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
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

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Range returns a uniform value in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi int64) int64 {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	// uint64 arithmetic keeps spans wider than MaxInt64 exact.
	return lo + int64(r.Uint64n(uint64(hi-lo)+1))
}

// Split returns a new generator whose stream is independent of r's.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A5A5A5A5A5)
}
