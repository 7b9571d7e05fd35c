// Package stats provides the small statistical toolkit used by the
// evaluation harness: the mean, quantiles, and the Pearson, Spearman and
// Kendall correlations.
//
// Everything operates on plain float64 slices and is deterministic.
// Functions follow one convention for degenerate input: statistics that
// are undefined on empty (or too-short) input return NaN rather than
// panicking, so a misconfigured experiment produces visibly-broken output
// instead of crashing a long benchmark run.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantiles returns the given quantiles (each 0 <= q <= 1) of xs,
// sorting once and interpolating linearly between order statistics
// (type-7, the R/NumPy default). An entry is NaN if xs is empty or its q
// is outside [0, 1]. xs is not modified.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			out[i] = math.NaN()
			continue
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples, or NaN if the lengths differ, are < 2, or either side has zero
// variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation of the paired samples
// (Pearson correlation of the ranks, with ties assigned mid-ranks), or
// NaN under the same conditions as Pearson.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based ranks of xs, assigning tied values their
// mid-rank (the average of the positions they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1 // mid-rank, 1-based
		for t := i; t <= j; t++ {
			ranks[idx[t]] = mid
		}
		i = j + 1
	}
	return ranks
}

// KendallTau returns Kendall's τ-b rank correlation of the paired
// samples, handling ties in either variable. It returns NaN if the
// lengths differ, are < 2, or either side is entirely tied. The
// implementation is the direct O(n²) pair scan — the harness compares
// rankings of at most a few thousand pairs, where simplicity beats an
// O(n log n) merge-sort variant.
func KendallTau(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var concordant, discordant, tiesX, tiesY float64
	n := len(xs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				// tied in both: contributes to neither
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx*dy > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	denom := math.Sqrt((concordant + discordant + tiesX) * (concordant + discordant + tiesY))
	if denom == 0 {
		return math.NaN()
	}
	return (concordant - discordant) / denom
}
