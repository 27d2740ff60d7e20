package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+). Experiments seed one RNG per stochastic component so that
// adding a new consumer of randomness does not perturb existing streams.
//
// math/rand would work, but its generator changed defaults across Go
// releases; a self-contained generator keeps results reproducible across
// toolchains, which matters for regression-testing experiment output.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed. Seed zero is remapped so the
// generator never starts in the all-zero (degenerate) state.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := &RNG{}
	// SplitMix64 scrambles the seed into two well-mixed words.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform integer in [0, n). It returns 0 when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n); n must be positive.
func (r *RNG) Int63n(n int64) int64 {
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
