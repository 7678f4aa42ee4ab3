package sim

import (
	"math"
	"sort"
	"time"
)

// Series accumulates scalar samples and answers summary-statistics
// queries. It keeps all samples (experiments here are small enough), so
// percentiles are exact.
type Series struct {
	samples []float64
	sorted  bool
	sum     float64
	sumSq   float64
}

// Add records one sample.
func (s *Series) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
	s.sumSq += v * v
}

// AddDuration records a duration sample in seconds.
func (s *Series) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Stddev returns the population standard deviation, or 0 with fewer than
// two samples.
func (s *Series) Stddev() float64 {
	n := float64(len(s.samples))
	if n < 2 {
		return 0
	}
	mean := s.sum / n
	v := s.sumSq/n - mean*mean
	if v < 0 { // numeric noise
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Series) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Percentile returns the p-th percentile using linear interpolation
// between closest ranks. Out-of-range p is clamped: p <= 0 (and NaN)
// yields the minimum, p >= 100 the maximum. With no samples it returns 0.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 || math.IsNaN(p) {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Median returns the 50th percentile.
func (s *Series) Median() float64 { return s.Percentile(50) }

// Samples returns a copy of the recorded samples in insertion order is not
// guaranteed once percentile queries have run; callers get sorted data.
func (s *Series) Samples() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.samples))
	copy(out, s.samples)
	return out
}

// CDF returns (value, cumulative fraction) pairs over the sorted samples,
// suitable for plotting an empirical CDF like the paper's Fig. 8a.
func (s *Series) CDF() (values, fractions []float64) {
	s.ensureSorted()
	n := len(s.samples)
	values = make([]float64, n)
	fractions = make([]float64, n)
	for i, v := range s.samples {
		values[i] = v
		fractions[i] = float64(i+1) / float64(n)
	}
	return values, fractions
}

// SeriesState is the exact internal state of a Series — raw samples in
// their current order plus the running sums, whose float accumulation
// order a recompute could not reproduce. Snapshot/restore round-trips
// through it bit for bit.
type SeriesState struct {
	Samples []float64
	Sorted  bool
	Sum     float64
	SumSq   float64
}

// State captures the series (the sample slice is copied).
func (s *Series) State() SeriesState {
	return SeriesState{
		Samples: append([]float64(nil), s.samples...),
		Sorted:  s.sorted,
		Sum:     s.sum,
		SumSq:   s.sumSq,
	}
}

// SetState restores a captured series state (the sample slice is
// copied).
func (s *Series) SetState(st SeriesState) {
	s.samples = append(s.samples[:0:0], st.Samples...)
	s.sorted = st.Sorted
	s.sum = st.Sum
	s.sumSq = st.SumSq
}

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Histogram counts samples into equal-width buckets over [lo, hi);
// samples outside the range land in the under/overflow counters.
type Histogram struct {
	Lo, Hi  float64
	Buckets []uint64
	Under   uint64
	Over    uint64
	total   uint64
}

// NewHistogram creates a histogram with n equal-width buckets spanning
// [lo, hi). It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("sim: histogram needs at least one bucket")
	}
	if hi <= lo {
		panic("sim: histogram range must be non-empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]uint64, n)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.total++
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i >= len(h.Buckets) { // guard float rounding at the upper edge
			i = len(h.Buckets) - 1
		}
		h.Buckets[i]++
	}
}

// Total returns the number of samples recorded, including out-of-range.
func (h *Histogram) Total() uint64 { return h.total }

// BucketBounds returns the [lo, hi) bounds of bucket i.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Buckets))
	return h.Lo + float64(i)*w, h.Lo + float64(i+1)*w
}

// Fraction returns bucket i's share of all recorded samples.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Buckets[i]) / float64(h.total)
}
