package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"linkpred/internal/exact"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestNewWindowedValidation(t *testing.T) {
	if _, err := NewWindowed(Config{K: 8}, 0, 4); err == nil {
		t.Error("window=0 should error")
	}
	if _, err := NewWindowed(Config{K: 8}, 100, 1); err == nil {
		t.Error("gens=1 should error")
	}
	if _, err := NewWindowed(Config{K: 8}, 2, 4); err == nil {
		t.Error("window smaller than gens should error")
	}
	if _, err := NewWindowed(Config{K: 0}, 100, 4); err == nil {
		t.Error("bad K should error")
	}
	if _, err := NewWindowed(Config{K: 8, EnableBiased: true}, 100, 4); err == nil {
		t.Error("EnableBiased should be rejected")
	}
	w, err := NewWindowed(Config{K: 8, Seed: 1}, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Window() != 100 {
		t.Errorf("Window = %d, want 100", w.Window())
	}
}

func TestWindowedForgetsOldEdges(t *testing.T) {
	w, err := NewWindowed(Config{K: 64, Seed: 2}, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 1 and 2 share neighborhood {10..29} at time 0.
	for i := uint64(10); i < 30; i++ {
		w.ProcessEdge(stream.Edge{U: 1, V: i, T: 0})
		w.ProcessEdge(stream.Edge{U: 2, V: i, T: 0})
	}
	if j := w.EstimateJaccard(1, 2); j != 1 {
		t.Fatalf("fresh overlap Jaccard = %v, want 1", j)
	}
	// Advance time far beyond the window with unrelated traffic.
	for ts := int64(10); ts <= 300; ts += 10 {
		w.ProcessEdge(stream.Edge{U: 500 + uint64(ts), V: 600 + uint64(ts), T: ts})
	}
	if w.Knows(1) || w.Knows(2) {
		t.Error("vertices from the expired window should be forgotten")
	}
	if j := w.EstimateJaccard(1, 2); j != 0 {
		t.Errorf("expired overlap Jaccard = %v, want 0", j)
	}
	if w.Rotations() == 0 {
		t.Error("no rotations recorded despite time advance")
	}
}

func TestWindowedRecentEdgesSurvive(t *testing.T) {
	w, _ := NewWindowed(Config{K: 64, Seed: 3}, 100, 4)
	// Old noise at t=0.
	for i := uint64(0); i < 50; i++ {
		w.ProcessEdge(stream.Edge{U: 900, V: 1000 + i, T: 0})
	}
	// Recent overlap at t=150..160 (within one generation of "now"=160).
	for i := uint64(10); i < 30; i++ {
		w.ProcessEdge(stream.Edge{U: 1, V: i, T: 150})
		w.ProcessEdge(stream.Edge{U: 2, V: i, T: 150})
	}
	w.ProcessEdge(stream.Edge{U: 700, V: 701, T: 160})
	if j := w.EstimateJaccard(1, 2); j != 1 {
		t.Errorf("recent overlap Jaccard = %v, want 1", j)
	}
	if !w.Knows(1) {
		t.Error("recent vertex forgotten too early")
	}
}

func TestWindowedCrossGenerationMerge(t *testing.T) {
	// A neighborhood spread across two live generations must be merged:
	// vertex 1 gains {10..19} in gen A and {20..29} in gen B; vertex 2
	// gains all of {10..29} in gen B. J must be ~1, and the distinct
	// degree ~20 (not arrivals-summed 20+20).
	w, _ := NewWindowed(Config{K: 256, Seed: 5}, 200, 4)
	for i := uint64(10); i < 20; i++ {
		w.ProcessEdge(stream.Edge{U: 1, V: i, T: 0})
	}
	for i := uint64(20); i < 30; i++ {
		w.ProcessEdge(stream.Edge{U: 1, V: i, T: 60})
	}
	for i := uint64(10); i < 30; i++ {
		w.ProcessEdge(stream.Edge{U: 2, V: i, T: 60})
	}
	if j := w.EstimateJaccard(1, 2); j != 1 {
		t.Errorf("cross-generation Jaccard = %v, want 1", j)
	}
	d := w.Degree(1)
	if math.Abs(d-20)/20 > 0.3 {
		t.Errorf("cross-generation degree = %v, want ≈20", d)
	}
	// Duplicate across generations must not inflate the distinct degree:
	// re-announce {10..19} in the later generation.
	for i := uint64(10); i < 20; i++ {
		w.ProcessEdge(stream.Edge{U: 1, V: i, T: 70})
	}
	d2 := w.Degree(1)
	if math.Abs(d2-20)/20 > 0.3 {
		t.Errorf("degree after cross-generation duplicates = %v, want ≈20", d2)
	}
}

func TestWindowedAccuracyWithinWindow(t *testing.T) {
	// Stream confined to one window: windowed estimates should track the
	// exact graph like a plain store does.
	x := rng.NewXoshiro256(7)
	g := graph.New()
	w, _ := NewWindowed(Config{K: 256, Seed: 11}, 1_000_000, 4)
	for i := 0; i < 4000; i++ {
		u := uint64(x.Intn(200))
		v := uint64(x.Intn(199))
		if v >= u {
			v++
		}
		w.ProcessEdge(stream.Edge{U: u, V: v, T: int64(i)})
		g.AddEdge(u, v)
	}
	sum, n := 0.0, 0
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if u == v {
			continue
		}
		sum += math.Abs(w.EstimateJaccard(u, v) - exact.Jaccard(g, u, v))
		n++
	}
	if mae := sum / float64(n); mae > 0.06 {
		t.Errorf("windowed Jaccard MAE = %.4f, want < 0.06", mae)
	}
	// CN and AA sane on overlapping pairs.
	bad := 0
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		truth := exact.CommonNeighbors(g, u, v)
		if u == v || truth < 5 {
			continue
		}
		if est := w.EstimateCommonNeighbors(u, v); math.Abs(est-truth)/truth > 0.5 {
			bad++
		}
	}
	if bad > 20 {
		t.Errorf("%d windowed CN estimates off by >50%%", bad)
	}
}

func TestWindowedEstimatesValidDuringRotation(t *testing.T) {
	w, _ := NewWindowed(Config{K: 32, Seed: 13}, 50, 5)
	x := rng.NewXoshiro256(17)
	for ts := int64(0); ts < 500; ts++ {
		u, v := uint64(x.Intn(50)), uint64(x.Intn(50))
		w.ProcessEdge(stream.Edge{U: u, V: v, T: ts})
		if ts%7 == 0 {
			a, b := uint64(x.Intn(50)), uint64(x.Intn(50))
			j := w.EstimateJaccard(a, b)
			cn := w.EstimateCommonNeighbors(a, b)
			aa := w.EstimateAdamicAdar(a, b)
			if j < 0 || j > 1 || cn < 0 || aa < 0 ||
				math.IsNaN(j) || math.IsNaN(cn) || math.IsNaN(aa) || math.IsInf(aa, 0) {
				t.Fatalf("invalid estimate mid-rotation at t=%d: j=%v cn=%v aa=%v", ts, j, cn, aa)
			}
		}
	}
	if w.NumEdges() >= 500 {
		t.Errorf("NumEdges = %d; rotation should have dropped old generations", w.NumEdges())
	}
	if w.MemoryBytes() <= 0 {
		t.Error("memory accounting broken")
	}
}

func TestWindowedOutOfWindowEdgeStillCounted(t *testing.T) {
	// A late edge with an old timestamp lands in the current generation
	// rather than being dropped.
	w, _ := NewWindowed(Config{K: 32, Seed: 19}, 100, 4)
	w.ProcessEdge(stream.Edge{U: 1, V: 2, T: 500})
	w.ProcessEdge(stream.Edge{U: 3, V: 4, T: 0}) // very late arrival
	if !w.Knows(3) {
		t.Error("late edge was dropped")
	}
}

func TestWindowedSaveLoadRoundTrip(t *testing.T) {
	w, err := NewWindowed(Config{K: 64, Seed: 761}, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NewXoshiro256(769)
	for ts := int64(0); ts < 500; ts++ {
		w.ProcessEdge(stream.Edge{U: x.Uint64() % 100, V: x.Uint64() % 100, T: ts})
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWindowed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Window() != w.Window() || loaded.Rotations() != w.Rotations() {
		t.Errorf("geometry differs after round trip")
	}
	for i := 0; i < 200; i++ {
		u, v := x.Uint64()%100, x.Uint64()%100
		if w.EstimateJaccard(u, v) != loaded.EstimateJaccard(u, v) ||
			w.EstimateCommonNeighbors(u, v) != loaded.EstimateCommonNeighbors(u, v) ||
			w.Degree(u) != loaded.Degree(u) {
			t.Fatalf("loaded windowed store diverges at (%d,%d)", u, v)
		}
	}
	// Resume: both must rotate identically on continued ingest.
	for ts := int64(500); ts < 900; ts++ {
		e := stream.Edge{U: x.Uint64() % 100, V: x.Uint64() % 100, T: ts}
		w.ProcessEdge(e)
		loaded.ProcessEdge(e)
	}
	if w.Rotations() != loaded.Rotations() {
		t.Errorf("rotation counts diverge after resume: %d vs %d", w.Rotations(), loaded.Rotations())
	}
	for i := 0; i < 100; i++ {
		u, v := x.Uint64()%100, x.Uint64()%100
		if w.EstimateJaccard(u, v) != loaded.EstimateJaccard(u, v) {
			t.Fatalf("post-resume divergence at (%d,%d)", u, v)
		}
	}
}

func TestLoadWindowedErrors(t *testing.T) {
	if _, err := LoadWindowed(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := LoadWindowed(strings.NewReader("NOPE" + strings.Repeat("x", 60))); err == nil {
		t.Error("bad magic should error")
	}
	w, _ := NewWindowed(Config{K: 8, Seed: 1}, 100, 4)
	w.ProcessEdge(stream.Edge{U: 1, V: 2, T: 0})
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadWindowed(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should error")
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 0x77 // version
	if _, err := LoadWindowed(bytes.NewReader(bad)); err == nil {
		t.Error("bad version should error")
	}
	// Generations that track triangles, which NewWindowed refuses.
	tri := bytes.Clone(buf.Bytes()[:48])
	for range 4 {
		tri = append(tri, saveBytes(t, must(NewSketchStore(Config{K: 8, Seed: 1, TrackTriangles: true})).Save)...)
	}
	if _, err := LoadWindowed(bytes.NewReader(tri)); err == nil {
		t.Error("generations tracking triangles should error")
	}
}

func TestWindowedLargeGapConstantTime(t *testing.T) {
	// The headline regression: a T=0 first edge followed by an
	// epoch-seconds edge used to spin ~1.7e9/span rotation iterations
	// (each allocating a fresh SketchStore), effectively hanging ingest.
	// The arithmetic rotation must complete instantly and reset at most
	// len(gens) generations.
	w, err := NewWindowed(Config{K: 32, Seed: 23}, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.ProcessEdge(stream.Edge{U: 1, V: 2, T: 0})
	start := time.Now()
	w.ProcessEdge(stream.Edge{U: 3, V: 4, T: 1_700_000_000})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("large-gap ProcessEdge took %v, want well under 1s", elapsed)
	}
	if w.Rotations() > int64(len(w.gens)) {
		t.Errorf("Rotations = %d, want <= %d (resets clamped to live generations)",
			w.Rotations(), len(w.gens))
	}
	if w.Knows(1) || w.Knows(2) {
		t.Error("pre-gap vertices should have expired")
	}
	if !w.Knows(3) || !w.Knows(4) {
		t.Error("post-gap edge lost")
	}
}

func TestWindowedLargeGapStateMatchesFresh(t *testing.T) {
	// After a gap larger than the whole window, the store must be
	// register-identical to a fresh store fed only the in-window edges.
	const gap = int64(1_700_000_000)
	old, _ := NewWindowed(Config{K: 64, Seed: 29}, 100, 4)
	for i := uint64(10); i < 30; i++ {
		old.ProcessEdge(stream.Edge{U: 1, V: i, T: 0})
		old.ProcessEdge(stream.Edge{U: 2, V: i, T: 0})
	}
	fresh, _ := NewWindowed(Config{K: 64, Seed: 29}, 100, 4)
	for i := uint64(40); i < 60; i++ {
		e1 := stream.Edge{U: 5, V: i, T: gap}
		e2 := stream.Edge{U: 6, V: i, T: gap + 3}
		old.ProcessEdge(e1)
		fresh.ProcessEdge(e1)
		old.ProcessEdge(e2)
		fresh.ProcessEdge(e2)
	}
	if old.NumEdges() != fresh.NumEdges() {
		t.Errorf("NumEdges = %d, fresh = %d", old.NumEdges(), fresh.NumEdges())
	}
	for u := uint64(0); u < 70; u++ {
		if old.Knows(u) != fresh.Knows(u) {
			t.Errorf("Knows(%d) = %v, fresh = %v", u, old.Knows(u), fresh.Knows(u))
		}
		if old.Degree(u) != fresh.Degree(u) {
			t.Errorf("Degree(%d) = %v, fresh = %v", u, old.Degree(u), fresh.Degree(u))
		}
		for v := u + 1; v < 70; v++ {
			if old.EstimateJaccard(u, v) != fresh.EstimateJaccard(u, v) {
				t.Errorf("Jaccard(%d,%d) diverges from fresh store", u, v)
			}
		}
	}
}

func TestWindowedLateEdgePlacement(t *testing.T) {
	// An in-window late edge must land in the generation covering its
	// timestamp (expiring with its cohort); a pre-window edge must land
	// in the *oldest* live generation (first to expire) — not the
	// youngest, where it would outlive the window by (G-1)/G·window.
	w, _ := NewWindowed(Config{K: 32, Seed: 31}, 100, 4)
	w.ProcessEdge(stream.Edge{U: 1, V: 2, T: 500}) // gen covering [500,525)
	w.ProcessEdge(stream.Edge{U: 3, V: 4, T: 0})   // pre-window → oldest live gen
	if !w.Knows(3) {
		t.Fatal("pre-window edge must be counted, not dropped")
	}
	// The next rotation expires the oldest generation: the pre-window
	// edge {3,4} goes first, while the in-order edge survives.
	w.ProcessEdge(stream.Edge{U: 5, V: 6, T: 530}) // advances to [525,550)
	if w.Knows(3) {
		t.Error("pre-window edge should be the first to expire")
	}
	if !w.Knows(1) {
		t.Error("in-window edge expired too early")
	}
	// A late but in-window edge joins the generation covering its
	// timestamp — the [500,525) cohort — not the youngest.
	w.ProcessEdge(stream.Edge{U: 7, V: 8, T: 510})
	if !w.Knows(7) {
		t.Fatal("late in-window edge must be counted")
	}
	// Rotations through T=620 expire the [500,525) cohort together
	// (including the late edge) while the [525,550) generation survives.
	w.ProcessEdge(stream.Edge{U: 9, V: 10, T: 620})
	if w.Knows(1) || w.Knows(7) {
		t.Error("the [500,525) cohort (including the late edge) should expire together")
	}
	if !w.Knows(5) {
		t.Error("edge at T=530 should still be live at T=620 (window 100)")
	}
}

// TestWindowedQueriesDoNotAllocate: a windowed degree read merges the
// generations into a pooled buffer, so after a warm-up call neither
// Degree nor a weighted Estimate (one degree read per matched midpoint)
// allocates.
func TestWindowedQueriesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	edges, cands := batchEdges(17, 2000)
	w := must(NewWindowed(Config{K: 32, Seed: 21, Degrees: DegreeDistinctKMV}, 500, 4))
	for _, e := range edges {
		w.ProcessEdge(e) // timestamps 0..1999: several generations live
	}
	u, v := edges[len(edges)-1].U, uint64(0)
	for _, c := range cands {
		if c != u && w.EstimateJaccard(u, c) > 0 {
			v = c
			break
		}
	}
	if w.EstimateJaccard(u, v) == 0 {
		t.Fatal("no candidate shares a register with the source; the weighted case would be vacuous")
	}
	if n := testing.AllocsPerRun(100, func() { w.Degree(u) }); n != 0 {
		t.Errorf("Windowed.Degree: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { w.Estimate(QueryAdamicAdar, u, v) }); n != 0 {
		t.Errorf("Windowed.Estimate(adamic-adar): %v allocs per call, want 0", n)
	}
}

// TestWindowedNumVerticesCountsTheUnion: NumVertices equals the size of
// the union of the live generations' vertex sets, checked against a map
// built over them, as the window rotates and late and pre-window edges
// land in older generations; and a scrape allocates nothing.
func TestWindowedNumVerticesCountsTheUnion(t *testing.T) {
	union := func(w *Windowed) int {
		seen := map[uint64]bool{}
		for _, g := range w.gens {
			for u := range g.vertices {
				seen[u] = true
			}
		}
		return len(seen)
	}
	w := must(NewWindowed(Config{K: 8, Seed: 5}, 100, 4))
	r := rng.NewXoshiro256(41)
	for i := 0; i < 3000; i++ {
		ts := int64(i / 4)
		if i%7 == 0 {
			ts -= int64(r.Intn(150)) // late, sometimes before the window
		}
		w.ProcessEdge(stream.Edge{U: uint64(r.Intn(60)), V: uint64(r.Intn(60)), T: ts})
		if got, want := w.NumVertices(), union(w); got != want {
			t.Fatalf("after edge %d (T=%d): NumVertices %d, union of the generations %d", i, ts, got, want)
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() { w.NumVertices() }); n != 0 {
		t.Errorf("Windowed.NumVertices: %v allocs per call, want 0", n)
	}
}
