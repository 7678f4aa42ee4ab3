package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasicStats(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSeriesEmptyIsSafe(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series must report zeros")
	}
}

func TestSeriesPercentiles(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{{0, 1}, {100, 100}, {50, 50.5}}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSeriesAddDuration(t *testing.T) {
	var s Series
	s.AddDuration(1500 * time.Millisecond)
	if got := s.Mean(); got != 1.5 {
		t.Fatalf("AddDuration mean = %v, want 1.5", got)
	}
}

// Property: percentile is monotone in p and bounded by [Min, Max].
func TestSeriesPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64, pa, pb uint8) bool {
		var s Series
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		lo, hi := float64(pa%101), float64(pb%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := s.Percentile(lo), s.Percentile(hi)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 9.99, 10, 42} {
		h.Add(v)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("Under/Over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Buckets[0] != 2 { // 0 and 1.9
		t.Fatalf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[1] != 1 { // 2
		t.Fatalf("bucket 1 = %d, want 1", h.Buckets[1])
	}
	if h.Buckets[4] != 1 { // 9.99
		t.Fatalf("bucket 4 = %d, want 1", h.Buckets[4])
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
	lo, hi := h.BucketBounds(1)
	if lo != 2 || hi != 4 {
		t.Fatalf("BucketBounds(1) = [%v, %v), want [2, 4)", lo, hi)
	}
	if got := h.Fraction(0); math.Abs(got-2.0/7.0) > 1e-9 {
		t.Fatalf("Fraction(0) = %v", got)
	}
}

// Property: histogram never loses samples — bucket counts plus
// under/overflow always equal the number of Adds.
func TestHistogramConservationProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		h := NewHistogram(-100, 100, 13)
		n := uint64(0)
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		var inBuckets uint64
		for _, b := range h.Buckets {
			inBuckets += b
		}
		return inBuckets+h.Under+h.Over == n && h.Total() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(99)
	var s Series
	for i := 0; i < 5000; i++ {
		s.Add(r.Exp(2.0))
	}
	if m := s.Mean(); m < 1.8 || m > 2.2 {
		t.Fatalf("Exp mean = %v, want ~2", m)
	}
	var n Series
	for i := 0; i < 5000; i++ {
		n.Add(r.Normal(10, 3))
	}
	if m := n.Mean(); m < 9.8 || m > 10.2 {
		t.Fatalf("Normal mean = %v, want ~10", m)
	}
	var p Series
	for i := 0; i < 5000; i++ {
		p.Add(r.Pareto(1, 2))
	}
	if p.Min() < 1 {
		t.Fatalf("Pareto produced a sample below xm: %v", p.Min())
	}
	u := r.Uniform(5, 6)
	if u < 5 || u >= 6 {
		t.Fatalf("Uniform out of range: %v", u)
	}
}

func TestRandForkIndependence(t *testing.T) {
	a := NewRand(1)
	b := NewRand(1)
	fa := a.Fork()
	// Draw extra values from a's fork; b's own sequence must match a
	// fresh same-seed source that also forked once.
	fa.Float64()
	fb := b.Fork()
	if fa == nil || fb == nil {
		t.Fatal("Fork returned nil")
	}
	if a.Float64() != b.Float64() {
		t.Fatal("forking changed the parent stream inconsistently")
	}
}
