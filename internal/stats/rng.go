// Package stats provides the deterministic pseudo-random number generation
// and the statistical machinery used by the fault-injection campaigns:
// splitmix64/xoshiro-style generators with derivable sub-streams, sample
// mean and proportion confidence intervals, and the statistical
// fault-injection sample-size planner from Leveugle et al. that the paper
// uses to justify 2,000 injections per structure (2.88% error margin at
// 99% confidence).
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is intentionally not crypto-grade: campaigns must be
// reproducible from a single published seed, and sub-streams must be
// derivable so that injection #i of a campaign is independent of how many
// worker goroutines execute the campaign.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Derive returns a new independent generator for the given stream index.
// It is used to give every injection experiment its own reproducible
// stream regardless of scheduling order.
func (r *RNG) Derive(stream uint64) *RNG {
	// Mix the base state with the stream id through one splitmix64 step
	// so neighbouring streams do not correlate.
	return NewRNG(mix64(r.state ^ mix64(stream+0x9e3779b97f4a7c15)))
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's method
// with rejection to remove modulo bias. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}
