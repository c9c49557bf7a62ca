// Package randx provides the seeded, deterministic random-number helpers
// used across the simulator: uniform draws over preference bands,
// exponential inter-arrival times for the Poisson query process, and
// permutation/selection utilities. Every simulation component draws from a
// *Rand created from the run seed, so a run is exactly reproducible.
package randx

import "math/rand/v2"

// Rand wraps math/rand/v2 with the distributions the simulator needs.
type Rand struct {
	*rand.Rand
	// pcg is the source behind Rand. Float64 reads it directly: the same
	// draw rand.Rand.Float64 makes, without the call through the Source
	// interface, which a population build pays once per preference.
	pcg *rand.PCG
}

// New returns a deterministic generator for the given seed.
func New(seed uint64) *Rand {
	return newPCG(seed, seed^0x9E3779B97F4A7C15)
}

func newPCG(seed1, seed2 uint64) *Rand {
	pcg := rand.NewPCG(seed1, seed2)
	return &Rand{Rand: rand.New(pcg), pcg: pcg}
}

// Split derives an independent generator from this one; used to give each
// subsystem (population build, arrivals, per-repetition runs) its own
// stream so adding draws in one place does not perturb the others.
func (r *Rand) Split() *Rand {
	return newPCG(r.Uint64(), r.Uint64())
}

// Float64 returns a uniform draw in [0, 1), the bits of rand.Rand.Float64.
func (r *Rand) Float64() float64 {
	return float64(r.pcg.Uint64()<<11>>11) / (1 << 53)
}

// Uniform returns a uniform draw in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponential variate with the given rate (events/second),
// i.e. the inter-arrival time of a Poisson process. Non-positive rates
// return +Inf-free large values are avoided by treating them as "never":
// the caller (the arrival scheduler) checks for rate <= 0 itself, so this
// guards with a very large time rather than Inf to keep the event heap
// arithmetic finite.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		return 1e18
	}
	return r.ExpFloat64() / rate
}

// Pick returns a uniform index in [0, n). n must be > 0.
func (r *Rand) Pick(n int) int {
	return r.IntN(n)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
