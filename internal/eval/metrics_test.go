package eval

import (
	"math"
	"testing"
	"testing/quick"

	"linkpred/internal/rng"
)

func TestMAE(t *testing.T) {
	if got := MAE([]float64{1, 2, 3}, []float64{1, 4, 1}); got != (0+2+2)/3.0 {
		t.Errorf("MAE = %v, want 4/3", got)
	}
	if !math.IsNaN(MAE(nil, nil)) {
		t.Error("MAE of empty should be NaN")
	}
	if !math.IsNaN(MAE([]float64{1}, []float64{1, 2})) {
		t.Error("MAE length mismatch should be NaN")
	}
}

func TestMeanRelativeError(t *testing.T) {
	est := []float64{11, 0, 5}
	truth := []float64{10, 0, 0.1}
	// Floor 1 keeps only the first pair: |11-10|/10 = 0.1.
	if got := MeanRelativeError(est, truth, 1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MRE = %v, want 0.1", got)
	}
	if !math.IsNaN(MeanRelativeError(est, truth, 100)) {
		t.Error("MRE with no qualifying pairs should be NaN")
	}
	if !math.IsNaN(MeanRelativeError(est, truth[:2], 0)) {
		t.Error("MRE length mismatch should be NaN")
	}
}

func TestAUC(t *testing.T) {
	// Perfect separation.
	auc, err := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []bool{true, true, false, false})
	if err != nil || auc != 1 {
		t.Errorf("perfect AUC = %v, %v", auc, err)
	}
	// Perfect inversion.
	auc, _ = AUC([]float64{0.1, 0.9}, []bool{true, false})
	if auc != 0 {
		t.Errorf("inverted AUC = %v, want 0", auc)
	}
	// All tied: 0.5.
	auc, _ = AUC([]float64{1, 1, 1, 1}, []bool{true, false, true, false})
	if auc != 0.5 {
		t.Errorf("tied AUC = %v, want 0.5", auc)
	}
	if _, err := AUC([]float64{1}, []bool{true}); err == nil {
		t.Error("single-class AUC should error")
	}
	if _, err := AUC([]float64{1, 2}, []bool{true}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestAUCRandomScoresNearHalf(t *testing.T) {
	x := rng.NewXoshiro256(2)
	n := 2000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = x.Float64()
		labels[i] = x.Float64() < 0.5
	}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.05 {
		t.Errorf("random AUC = %v, want ≈0.5", auc)
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	x := rng.NewXoshiro256(3)
	if err := quick.Check(func(seed uint64) bool {
		n := 50
		scores := make([]float64, n)
		scaled := make([]float64, n)
		labels := make([]bool, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = x.Float64() * 10
			scaled[i] = scores[i]*3 + 7 // strictly monotone transform
			labels[i] = x.Float64() < 0.4
			if labels[i] {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		a, err1 := AUC(scores, labels)
		b, err2 := AUC(scaled, labels)
		return err1 == nil && err2 == nil && math.Abs(a-b) < 1e-12
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompareRankings(t *testing.T) {
	candidates := []uint64{10, 20, 30, 40}
	exactScores := []float64{4, 3, 2, 1}
	// Estimates preserve the order → perfect agreement.
	agree, err := CompareRankings(candidates, []float64{40, 30, 20, 10}, exactScores, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agree.PrecisionAtK != 1 || agree.KendallTau != 1 || agree.Spearman != 1 {
		t.Errorf("perfect agreement = %+v", agree)
	}
	// Reversed estimates → full disagreement.
	agree, _ = CompareRankings(candidates, []float64{1, 2, 3, 4}, exactScores, 2)
	if agree.PrecisionAtK != 0 || agree.KendallTau != -1 {
		t.Errorf("reversed agreement = %+v", agree)
	}
	if _, err := CompareRankings(candidates, exactScores[:2], exactScores, 2); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := CompareRankings(nil, nil, nil, 2); err == nil {
		t.Error("empty input should error")
	}
}

func TestCompareRankingsKLargerThanCandidates(t *testing.T) {
	candidates := []uint64{1, 2}
	agree, err := CompareRankings(candidates, []float64{5, 1}, []float64{9, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if agree.PrecisionAtK != 1 {
		t.Errorf("P@k with k > n = %v, want 1 (both sets are everything)", agree.PrecisionAtK)
	}
}
