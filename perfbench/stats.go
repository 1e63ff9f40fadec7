package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailLevels are the percentiles a timing may report as its tail, in
// the order tried.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// sample is a set of timings (or any measurements) for one metric.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the nearest-rank percentile: the smallest value with at least
// q of the samples at or below it. sorted must be ascending and
// non-empty.
func rank(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// median returns the nearest-rank median, or 0 for no samples: a
// layer a workload bypasses reports 0.
func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v, _ := rank(s.sorted(), 0.5)
	return v
}

// tail returns the highest percentile in tailLevels that has at least
// minBeyond samples beyond it, and its value. ok is false when even the
// median has fewer than minBeyond samples beyond it.
func (s sample) tail() (q, v float64, ok bool) {
	if len(s) == 0 {
		return 0, 0, false
	}
	sorted := s.sorted()
	for _, q := range tailLevels {
		if v, beyond := rank(sorted, q); beyond >= minBeyond {
			return q, v, true
		}
	}
	return 0, 0, false
}

// scaled returns a copy with every value multiplied by f.
func (s sample) scaled(f float64) sample {
	out := make(sample, len(s))
	for i, x := range s {
		out[i] = x * f
	}
	return out
}

// mean returns the arithmetic mean, or 0 for no samples.
func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// ratio divides, reporting 0 for an empty base: a layer that did no
// work on a workload reports 0, the bypass the metric map predicts.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// meanOfMedians averages the medians of each group, so the mix of
// groups a run happened to draw (the qualities of its last sessions,
// say) does not move the figure.
func meanOfMedians(groups map[string]sample) float64 {
	var sum float64
	for _, g := range groups {
		sum += g.median()
	}
	return ratio(sum, float64(len(groups)))
}
