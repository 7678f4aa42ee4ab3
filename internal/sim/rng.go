package sim

import (
	"math"
	"math/rand"
)

// countingSource wraps the math/rand source and counts state advances.
// Both Int63 and Uint64 advance the underlying generator by exactly one
// step, so the pair (seed, draws) is a complete, replayable description
// of the stream position: reseed and burn draws steps to land on the
// identical state regardless of which draw mix produced it. That is what
// lets a world snapshot capture an RNG without access to math/rand's
// private state.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// Rand is a deterministic random source with the distributions the
// simulator needs. It wraps math/rand with an explicit seed so that a
// whole experiment is reproducible from a single integer, and counts
// draws so the stream position is snapshotable (State/NewRandFromState).
type Rand struct {
	src  *rand.Rand
	cs   countingSource
	seed int64
}

// RandState is the complete replayable position of a Rand stream.
type RandState struct {
	Seed  int64
	Draws uint64
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{seed: seed}
	r.cs.src = rand.NewSource(seed).(rand.Source64)
	r.src = rand.New(&r.cs)
	return r
}

// State captures the stream position. Restoring it with
// NewRandFromState yields a Rand whose future draws are bit-identical
// to this one's.
func (r *Rand) State() RandState {
	return RandState{Seed: r.seed, Draws: r.cs.draws}
}

// NewRandFromState rebuilds a Rand at a captured stream position by
// reseeding and burning the recorded number of state advances.
func NewRandFromState(st RandState) *Rand {
	r := NewRand(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		r.cs.src.Uint64() // advance without double-counting
	}
	r.cs.draws = st.Draws
	return r
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uniform returns a uniform sample in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Exp returns an exponential sample with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// Normal returns a normal sample with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return r.src.NormFloat64()*stddev + mean
}

// LogNormal returns a log-normal sample where mu and sigma are the mean
// and standard deviation of the underlying normal distribution.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.src.NormFloat64()*sigma + mu)
}

// Pareto returns a Pareto sample with minimum xm and shape alpha.
// Heavy-tailed: used by the trace generator for resource requests.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Fork derives an independent sub-stream. Deriving streams by draw keeps
// component randomness decoupled: adding draws in one component does not
// shift the sequence seen by another.
func (r *Rand) Fork() *Rand { return NewRand(r.src.Int63()) }
