// Package dist provides the deterministic random samplers that drive the
// synthetic workload generator.
//
// Every source of randomness in the repository flows through a Source
// created from an explicit seed, so a given seed reproduces a byte-identical
// trace and therefore identical tables and figures. The samplers cover the
// distributions the workload model draws from: uniform choices,
// exponential inter-arrival times, log-normal file sizes and durations,
// and Zipf-like popularity for shared files and programs.
package dist

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source. It is a thin wrapper around
// math/rand.Rand that exists so constructors can demand a seeded source and
// so helper samplers have one obvious home. Source is not safe for
// concurrent use; the simulator is single-goroutine by design.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a Source seeded with the given value.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Fork returns a new Source whose seed is derived from this source's
// stream. Forking gives each workload component an independent stream so
// adding draws to one component does not perturb the others.
func (s *Source) Fork() *Source {
	return NewSource(s.rng.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63n returns a uniform value in [0, n).
func (s *Source) Int63n(n int64) int64 { return s.rng.Int63n(n) }

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean returns 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// LogNormal returns a log-normally distributed value parameterized by its
// median and the sigma of the underlying normal. File sizes and open
// durations in the traced systems are heavy-tailed with a small median,
// which a log-normal fits well.
func (s *Source) LogNormal(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return median * math.Exp(s.rng.NormFloat64()*sigma)
}

// Zipf draws from a Zipf distribution over [0, n) with exponent theta > 1
// being more skewed as theta grows. It is used for file and program
// popularity: a few shared headers and commands absorb most accesses.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a Zipf sampler over [0, n) with skew parameter sk > 1.
func NewZipf(s *Source, sk float64, n int) *Zipf {
	if n <= 0 {
		panic("dist: NewZipf needs n > 0")
	}
	if sk <= 1 {
		panic("dist: NewZipf needs skew > 1")
	}
	return &Zipf{z: rand.NewZipf(s.rng, sk, 1, uint64(n-1))}
}

// Draw returns the next index in [0, n).
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }
