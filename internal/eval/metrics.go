// Package eval provides the evaluation machinery for streaming link
// prediction: pointwise error metrics between estimated and exact
// measure values, ranking-quality metrics between estimated and exact
// top-k lists, and the temporal link-prediction harness (train on the
// stream prefix, score held-out future edges, report AUC and
// precision@N).
package eval

import (
	"fmt"
	"math"
	"sort"

	"linkpred/internal/stats"
)

// MAE returns the mean absolute error between estimates and truths. It
// returns NaN if the slices differ in length or are empty.
func MAE(est, truth []float64) float64 {
	if len(est) != len(truth) || len(est) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range est {
		sum += math.Abs(est[i] - truth[i])
	}
	return sum / float64(len(est))
}

// MeanRelativeError returns the mean of |est−truth|/truth over pairs with
// truth above minTruth (relative error is meaningless near zero — callers
// choose the floor). It returns NaN if no pair qualifies.
func MeanRelativeError(est, truth []float64, minTruth float64) float64 {
	if len(est) != len(truth) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for i := range est {
		if truth[i] >= minTruth && truth[i] > 0 {
			sum += math.Abs(est[i]-truth[i]) / truth[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// AUC returns the area under the ROC curve for scores with binary labels:
// the probability that a uniformly random positive outscores a uniformly
// random negative, counting ties as half. It returns an error if the
// slices differ in length or either class is absent — an AUC over one
// class is undefined and always a harness bug.
func AUC(scores []float64, labels []bool) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: AUC length mismatch: %d scores, %d labels", len(scores), len(labels))
	}
	type sl struct {
		s   float64
		pos bool
	}
	data := make([]sl, len(scores))
	var nPos, nNeg float64
	for i := range scores {
		data[i] = sl{scores[i], labels[i]}
		if labels[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("eval: AUC needs both classes (pos=%v, neg=%v)", nPos, nNeg)
	}
	sort.Slice(data, func(i, j int) bool { return data[i].s < data[j].s })
	// Rank-sum (Mann–Whitney) formulation with mid-ranks for ties.
	rankSum := 0.0
	i := 0
	for i < len(data) {
		j := i
		for j+1 < len(data) && data[j+1].s == data[i].s {
			j++
		}
		midRank := float64(i+j)/2 + 1
		for t := i; t <= j; t++ {
			if data[t].pos {
				rankSum += midRank
			}
		}
		i = j + 1
	}
	return (rankSum - nPos*(nPos+1)/2) / (nPos * nNeg), nil
}

// RankingAgreement bundles the agreement statistics between an estimated
// ranking and the exact ranking of the same candidate set.
type RankingAgreement struct {
	// PrecisionAtK is the overlap fraction between the two top-k sets.
	PrecisionAtK float64
	// KendallTau is Kendall's τ-b between the two score vectors over the
	// full candidate set.
	KendallTau float64
	// Spearman is Spearman's ρ between the two score vectors.
	Spearman float64
}

// CompareRankings scores how well estimated scores reproduce exact scores
// over a shared candidate list. k is the top-k cutoff for the overlap
// metric. The candidates, estimated and exact slices are parallel. It
// returns an error on length mismatch or empty input.
func CompareRankings(candidates []uint64, estimated, exactScores []float64, k int) (RankingAgreement, error) {
	if len(candidates) != len(estimated) || len(candidates) != len(exactScores) {
		return RankingAgreement{}, fmt.Errorf("eval: CompareRankings length mismatch: %d/%d/%d",
			len(candidates), len(estimated), len(exactScores))
	}
	if len(candidates) == 0 {
		return RankingAgreement{}, fmt.Errorf("eval: CompareRankings on empty candidate set")
	}
	topSet := func(scores []float64) map[uint64]bool {
		idx := make([]int, len(candidates))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if scores[idx[a]] != scores[idx[b]] {
				return scores[idx[a]] > scores[idx[b]]
			}
			return candidates[idx[a]] < candidates[idx[b]]
		})
		n := k
		if n > len(idx) {
			n = len(idx)
		}
		set := make(map[uint64]bool, n)
		for _, i := range idx[:n] {
			set[candidates[i]] = true
		}
		return set
	}
	exactTop := topSet(exactScores)
	estTop := topSet(estimated)
	overlap := 0
	for v := range estTop {
		if exactTop[v] {
			overlap++
		}
	}
	denom := k
	if denom > len(candidates) {
		denom = len(candidates)
	}
	return RankingAgreement{
		PrecisionAtK: float64(overlap) / float64(denom),
		KendallTau:   stats.KendallTau(estimated, exactScores),
		Spearman:     stats.Spearman(estimated, exactScores),
	}, nil
}
