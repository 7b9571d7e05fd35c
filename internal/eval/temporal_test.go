package eval

import (
	"math"
	"testing"

	"linkpred/internal/baseline"
	"linkpred/internal/core"
	"linkpred/internal/gen"
	"linkpred/internal/stream"
)

func coauthorEdges(t *testing.T) []stream.Edge {
	t.Helper()
	src, err := gen.Coauthor(800, 4000, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	es, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return es
}

func TestNewTemporalTaskShape(t *testing.T) {
	es := coauthorEdges(t)
	task, err := NewTemporalTask(es, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Train) != int(0.8*float64(len(es))) {
		t.Errorf("train size = %d", len(task.Train))
	}
	if len(task.Pairs) != len(task.Labels) {
		t.Fatal("pairs/labels length mismatch")
	}
	pos := task.Positives()
	if pos == 0 {
		t.Fatal("no positives")
	}
	if len(task.Pairs) != 2*pos {
		t.Errorf("pairs = %d, want 2×positives = %d", len(task.Pairs), 2*pos)
	}
	// No duplicate pairs, all canonical, no self pairs.
	seen := make(map[[2]uint64]bool)
	for _, p := range task.Pairs {
		if p[0] >= p[1] {
			t.Fatalf("non-canonical or self pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestNewTemporalTaskErrors(t *testing.T) {
	es := coauthorEdges(t)
	if _, err := NewTemporalTask(es, 1.5, 1); err == nil {
		t.Error("bad fraction should error")
	}
	if _, err := NewTemporalTask(es[:10], 1.0, 1); err == nil {
		t.Error("empty test suffix should error (no positives)")
	}
}

func TestTemporalDeterministic(t *testing.T) {
	es := coauthorEdges(t)
	a, err := NewTemporalTask(es, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewTemporalTask(es, 0.8, 7)
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatal("task not deterministic in size")
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] || a.Labels[i] != b.Labels[i] {
			t.Fatalf("task not deterministic at pair %d", i)
		}
	}
}

func TestRunTemporalExactBeatsRandom(t *testing.T) {
	es := coauthorEdges(t)
	task, err := NewTemporalTask(es, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTemporal(task, baseline.NewExact(), baseline.System.EstimateAdamicAdar)
	if err != nil {
		t.Fatal(err)
	}
	// Neighborhood measures carry real signal on a community-structured
	// stream: the exact system must be far better than chance.
	if res.AUC < 0.65 {
		t.Errorf("exact AA AUC = %.3f, want > 0.65", res.AUC)
	}
	if res.MemoryBytes <= 0 {
		t.Error("memory not reported")
	}
	if math.IsNaN(res.PrecisionAtN) || res.PrecisionAtN < 0 || res.PrecisionAtN > 1 {
		t.Errorf("PrecisionAtN = %v out of range", res.PrecisionAtN)
	}
}

func TestRunTemporalSketchTracksExact(t *testing.T) {
	es := coauthorEdges(t)
	task, err := NewTemporalTask(es, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	exactRes, err := RunTemporal(task, baseline.NewExact(), baseline.System.EstimateJaccard)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSketchStore(core.Config{K: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sketchRes, err := RunTemporal(task, s, baseline.System.EstimateJaccard)
	if err != nil {
		t.Fatal(err)
	}
	if sketchRes.AUC < exactRes.AUC-0.08 {
		t.Errorf("sketch AUC %.3f trails exact %.3f by more than 0.08",
			sketchRes.AUC, exactRes.AUC)
	}
}

func TestRunTemporalAllScoreFuncs(t *testing.T) {
	es := coauthorEdges(t)
	task, err := NewTemporalTask(es, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]ScoreFunc{
		"jaccard": baseline.System.EstimateJaccard, "cn": baseline.System.EstimateCommonNeighbors, "aa": baseline.System.EstimateAdamicAdar,
	} {
		res, err := RunTemporal(task, baseline.NewExact(), fn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.AUC < 0.5 {
			t.Errorf("%s AUC = %.3f below chance", name, res.AUC)
		}
	}
}

func TestRPrecision(t *testing.T) {
	// 2 positives; top-2 scores are one positive, one negative → 0.5.
	scores := []float64{0.9, 0.8, 0.3, 0.1}
	labels := []bool{true, false, true, false}
	if got := rPrecision(scores, labels); got != 0.5 {
		t.Errorf("rPrecision = %v, want 0.5", got)
	}
	if !math.IsNaN(rPrecision([]float64{1}, []bool{false})) {
		t.Error("rPrecision with no positives should be NaN")
	}
}

func TestRPrecisionTiesResolveToBaseRate(t *testing.T) {
	// All scores tied, positives listed first: expected precision is the
	// base rate (0.5 here), not 1.0 from input ordering.
	scores := []float64{0, 0, 0, 0}
	labels := []bool{true, true, false, false}
	if got := rPrecision(scores, labels); got != 0.5 {
		t.Errorf("tied rPrecision = %v, want base rate 0.5", got)
	}
}

func TestRPrecisionPartialTieAtCutoff(t *testing.T) {
	// 2 positives. One clear positive on top, then a 2-element tie with
	// 1 positive for the single remaining slot → 1 + 0.5 over 2 = 0.75.
	scores := []float64{0.9, 0.5, 0.5, 0.1}
	labels := []bool{true, true, false, false}
	if got := rPrecision(scores, labels); got != 0.75 {
		t.Errorf("partial-tie rPrecision = %v, want 0.75", got)
	}
}
