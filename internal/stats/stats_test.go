package stats

import (
	"math"
	"testing"
	"testing/quick"

	"linkpred/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	qs := []float64{0, 0.25, 0.5, 0.75, 1, 0.1}
	want := []float64{1, 2, 3, 4, 5, 1.4}
	got := Quantiles(xs, qs...)
	for i, q := range qs {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Quantiles(%v) = %v, want %v", q, got[i], want[i])
		}
	}
	if v := Quantiles(nil, 0.5); !math.IsNaN(v[0]) {
		t.Error("Quantiles of empty should be NaN")
	}
	if v := Quantiles(xs, -0.1, 0.5, 1.1, math.NaN()); !math.IsNaN(v[0]) || v[1] != 3 || !math.IsNaN(v[2]) || !math.IsNaN(v[3]) {
		t.Errorf("Quantiles with out-of-range q = %v, want [NaN 3 NaN NaN]", v)
	}
	if v := Quantiles([]float64{7}, 0.9); v[0] != 7 {
		t.Errorf("Quantiles of singleton = %v, want 7", v[0])
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantiles(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantiles mutated input: %v", xs)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect positive Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect negative Pearson = %v, want -1", got)
	}
	if !math.IsNaN(Pearson(xs, ys[:3])) {
		t.Error("length mismatch should give NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("zero variance should give NaN")
	}
}

func TestSpearmanMonotonic(t *testing.T) {
	// Spearman is invariant under monotone transforms.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // x^3: nonlinear but monotone
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman of monotone data = %v, want 1", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestKendallTau(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := KendallTau(xs, xs); !almostEqual(got, 1, 1e-12) {
		t.Errorf("tau of identical = %v, want 1", got)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := KendallTau(xs, rev); !almostEqual(got, -1, 1e-12) {
		t.Errorf("tau of reversed = %v, want -1", got)
	}
	// Known small example with one discordant pair:
	// pairs of (1,2,3) vs (1,3,2): C=2, D=1, tau = 1/3.
	if got := KendallTau([]float64{1, 2, 3}, []float64{1, 3, 2}); !almostEqual(got, 1.0/3, 1e-12) {
		t.Errorf("tau = %v, want 1/3", got)
	}
	if !math.IsNaN(KendallTau([]float64{1, 1}, []float64{1, 2})) {
		t.Error("all-tied x should give NaN")
	}
}

func TestKendallTauIndependentNearZero(t *testing.T) {
	x := rng.NewXoshiro256(4)
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = x.Float64()
		ys[i] = x.Float64()
	}
	if got := KendallTau(xs, ys); math.Abs(got) > 0.08 {
		t.Errorf("tau of independent data = %v, want ~0", got)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	x := rng.NewXoshiro256(5)
	if err := quick.Check(func(seed uint64) bool {
		n := int(seed%50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x.Float64() * 100
		}
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		v := Quantiles(xs, x.Float64())[0]
		return v >= lo-1e-9 && v <= hi+1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPearsonSymmetryProperty(t *testing.T) {
	x := rng.NewXoshiro256(6)
	if err := quick.Check(func(seed uint64) bool {
		n := int(seed%40) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = x.NormFloat64()
			ys[i] = x.NormFloat64()
		}
		a, b := Pearson(xs, ys), Pearson(ys, xs)
		if math.IsNaN(a) && math.IsNaN(b) {
			return true
		}
		return almostEqual(a, b, 1e-12) && a >= -1-1e-12 && a <= 1+1e-12
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
