package eval

import (
	"fmt"
	"math"
	"sort"

	"linkpred/internal/rng"
	"linkpred/internal/stats"
)

// BootstrapAUC returns the AUC of the scored, labelled items together
// with a percentile-bootstrap confidence interval at the given level
// (e.g. 0.95), using trials resamples driven by the seed. It errors on
// the same degenerate inputs as AUC, on trials < 10, or on a level
// outside (0, 1).
//
// Resamples that lose one class entirely (possible when a class is
// rare) are redrawn, up to a bounded number of attempts.
func BootstrapAUC(scores []float64, labels []bool, trials int, level float64, seed uint64) (auc, lo, hi float64, err error) {
	auc, err = AUC(scores, labels)
	if err != nil {
		return 0, 0, 0, err
	}
	if trials < 10 {
		return 0, 0, 0, fmt.Errorf("eval: bootstrap needs trials >= 10, got %d", trials)
	}
	if level <= 0 || level >= 1 || math.IsNaN(level) {
		return 0, 0, 0, fmt.Errorf("eval: bootstrap level %v outside (0, 1)", level)
	}
	x := rng.NewXoshiro256(seed)
	n := len(scores)
	resampled := make([]float64, len(scores))
	relabeled := make([]bool, len(labels))
	var aucs []float64
	attempts := 0
	for len(aucs) < trials && attempts < 20*trials {
		attempts++
		hasPos, hasNeg := false, false
		for i := 0; i < n; i++ {
			j := x.Intn(n)
			resampled[i] = scores[j]
			relabeled[i] = labels[j]
			if labels[j] {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			continue
		}
		a, err := AUC(resampled, relabeled)
		if err != nil {
			continue
		}
		aucs = append(aucs, a)
	}
	if len(aucs) < trials {
		return 0, 0, 0, fmt.Errorf("eval: bootstrap could not draw %d valid resamples (class too rare)", trials)
	}
	alpha := (1 - level) / 2
	qs := stats.Quantiles(aucs, alpha, 1-alpha)
	return auc, qs[0], qs[1], nil
}

// ROCPoint is one operating point of an ROC curve.
type ROCPoint struct {
	// Threshold is the score cutoff: items with score >= Threshold are
	// predicted positive.
	Threshold float64
	// TPR is the true-positive rate (recall) at that cutoff; FPR the
	// false-positive rate.
	TPR, FPR float64
}

// ROCCurve returns the ROC curve of the scored, labelled items: one
// point per distinct score (descending), ties grouped, ending at
// (FPR, TPR) = (1, 1). It errors if the lengths differ or either class
// is absent. The trapezoidal area under the returned curve equals AUC.
func ROCCurve(scores []float64, labels []bool) ([]ROCPoint, error) {
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("eval: ROC curve length mismatch: %d scores, %d labels", len(scores), len(labels))
	}
	totalPos, totalNeg := 0, 0
	for _, l := range labels {
		if l {
			totalPos++
		} else {
			totalNeg++
		}
	}
	if totalPos == 0 || totalNeg == 0 {
		return nil, fmt.Errorf("eval: ROC curve needs both classes (pos=%d, neg=%d)", totalPos, totalNeg)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var curve []ROCPoint
	tp, fp := 0, 0
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] {
				tp++
			} else {
				fp++
			}
			j++
		}
		curve = append(curve, ROCPoint{
			Threshold: scores[idx[i]],
			TPR:       float64(tp) / float64(totalPos),
			FPR:       float64(fp) / float64(totalNeg),
		})
		i = j
	}
	return curve, nil
}
