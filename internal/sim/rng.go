package sim

import "math"

// RNG is a small, fast, deterministic random source (SplitMix64 core with
// a PCG-style output permutation). It is used instead of math/rand so that
// simulation runs are reproducible across Go releases, and so components
// can derive independent substreams (Fork) without sharing state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed int64) *RNG {
	r := &RNG{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
	// Warm up so small seeds do not produce correlated first outputs.
	r.next()
	r.next()
	return r
}

// Fork derives an independent generator from the current state, advancing
// this generator once. Useful to give each simulated component its own
// stream so adding components does not perturb others.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.next() ^ 0xD1B54A32D192ED03}
}

// next returns the next 64 random bits.
func (r *RNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Pareto returns a bounded Pareto sample in [min,max] with shape alpha.
// Heavy-tailed service and inter-arrival times in the scheduler and
// cross-traffic models use this.
func (r *RNG) Pareto(alpha, min, max float64) float64 {
	if min >= max {
		return min
	}
	u := r.Float64()
	la := math.Pow(min, alpha)
	ha := math.Pow(max, alpha)
	// The conversion rounds the product, so no architecture fuses it with
	// the subtraction (see DESIGN.md "Determinism").
	return math.Pow((ha*la)/(ha-float64(u*(ha-la))), 1/alpha)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
