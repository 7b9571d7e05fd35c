package eval

import (
	"math"
	"testing"

	"linkpred/internal/rng"
)

func TestBootstrapAUC(t *testing.T) {
	x := rng.NewXoshiro256(2)
	n := 600
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		labels[i] = i%2 == 0
		if labels[i] {
			scores[i] = x.NormFloat64() + 1 // positives shifted up
		} else {
			scores[i] = x.NormFloat64()
		}
	}
	auc, lo, hi, err := BootstrapAUC(scores, labels, 200, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lo > auc || auc > hi {
		t.Errorf("point estimate %v outside CI [%v, %v]", auc, lo, hi)
	}
	// Theoretical AUC for N(1,1) vs N(0,1) is Φ(1/√2) ≈ 0.76.
	if auc < 0.70 || auc > 0.82 {
		t.Errorf("AUC = %v, want ≈0.76", auc)
	}
	if hi-lo > 0.15 || hi-lo <= 0 {
		t.Errorf("CI width %v implausible for n=%d", hi-lo, n)
	}
}

func TestBootstrapAUCDeterministic(t *testing.T) {
	scores := []float64{0.9, 0.7, 0.4, 0.2, 0.6, 0.1}
	labels := []bool{true, true, false, false, true, false}
	_, lo1, hi1, err := BootstrapAUC(scores, labels, 100, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, lo2, hi2, _ := BootstrapAUC(scores, labels, 100, 0.9, 3)
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("bootstrap not deterministic under fixed seed")
	}
}

func TestBootstrapAUCErrors(t *testing.T) {
	good := []float64{1, 0}
	labels := []bool{true, false}
	if _, _, _, err := BootstrapAUC(good, labels, 5, 0.95, 1); err == nil {
		t.Error("too few trials should error")
	}
	if _, _, _, err := BootstrapAUC(good, labels, 100, 1.5, 1); err == nil {
		t.Error("bad level should error")
	}
	if _, _, _, err := BootstrapAUC([]float64{1, 2}, []bool{true, true}, 100, 0.9, 1); err == nil {
		t.Error("single-class input should error")
	}
}

func TestROCCurve(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	curve, err := ROCCurve(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	last := curve[len(curve)-1]
	if last.TPR != 1 || last.FPR != 1 {
		t.Errorf("curve must end at (1,1): %+v", last)
	}
	// Monotone non-decreasing in both rates.
	for i := 1; i < len(curve); i++ {
		if curve[i].TPR < curve[i-1].TPR || curve[i].FPR < curve[i-1].FPR {
			t.Fatal("ROC rates decreased along the curve")
		}
	}
	// Trapezoidal area equals AUC.
	area, prevFPR, prevTPR := 0.0, 0.0, 0.0
	for _, p := range curve {
		area += (p.FPR - prevFPR) * (p.TPR + prevTPR) / 2
		prevFPR, prevTPR = p.FPR, p.TPR
	}
	auc, _ := AUC(scores, labels)
	if math.Abs(area-auc) > 1e-12 {
		t.Errorf("trapezoidal ROC area %v != AUC %v", area, auc)
	}
}

func TestROCCurveTrapezoidMatchesAUCRandom(t *testing.T) {
	x := rng.NewXoshiro256(9)
	scores := make([]float64, 500)
	labels := make([]bool, 500)
	for i := range scores {
		scores[i] = float64(x.Intn(20)) // heavy ties on purpose
		labels[i] = x.Float64() < 0.4
	}
	curve, err := ROCCurve(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	area, prevFPR, prevTPR := 0.0, 0.0, 0.0
	for _, p := range curve {
		area += (p.FPR - prevFPR) * (p.TPR + prevTPR) / 2
		prevFPR, prevTPR = p.FPR, p.TPR
	}
	auc, _ := AUC(scores, labels)
	if math.Abs(area-auc) > 1e-9 {
		t.Errorf("trapezoidal area %v != AUC %v under ties", area, auc)
	}
}

func TestROCCurveErrors(t *testing.T) {
	if _, err := ROCCurve([]float64{1}, []bool{true, false}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := ROCCurve([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Error("single class should error")
	}
}
