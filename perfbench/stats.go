package main

import (
	"math"
	"regexp"
	"sort"
)

// minAbove is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is noise, not a tail.
const minAbove = 10

// tailLadder lists the percentiles a tail is chosen from, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// rank is the 1-based nearest-rank position of the p-th percentile in
// n sorted samples. The epsilon keeps p = 99.9 of n = 10000 at 9990
// despite the float rounding of 99.9/100.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// above counts the samples of n that lie above the p-th percentile.
func above(n int, p float64) int { return n - rank(n, p) }

// percentile reads the nearest-rank p-th percentile of sorted samples
// (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailPercentile is the highest ladder percentile that leaves at least
// minAbove of n samples above it; ok is false when none does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if above(n, q) >= minAbove {
			p, ok = q, true
		}
	}
	return p, ok
}

// median of unsorted samples (mean of the middle two for even n; 0 for
// none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metricName is the grammar every metric name follows: at most 64
// letters, digits, '_', '.' and '-', starting with a letter or digit.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name follows the metric-name grammar.
func validName(name string) bool { return metricName.MatchString(name) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
