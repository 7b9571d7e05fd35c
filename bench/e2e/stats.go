package main

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which
// it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// quartiles returns the first quartile, median and third quartile of xs
// with the interpolation of Python's statistics.quantiles(xs, n=4)
// (method "exclusive"), the rule the benchmark's spread check is stated
// in. xs is sorted in place; it needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// latencies collects per-request timings of one class (or of a whole
// workload) as milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// p returns the nearest-rank p-quantile in milliseconds.
func (l latencies) p(q float64) float64 {
	return percentile(append([]float64(nil), l...), q)
}

// median returns the median of xs, or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
