package linkpred_test

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	linkpred "linkpred"
)

// parityEngines builds one engine of every mode over the same edge
// stream (read as arcs by the directed modes, with timestamps inside one
// window generation by the windowed mode) and returns them keyed by mode
// name. All stores are quiescent by the time the map is returned.
func parityEngines(t *testing.T) map[string]linkpred.Engine {
	t.Helper()
	cfg := linkpred.Config{K: 64, Seed: 7, DistinctDegrees: true}

	engines := make(map[string]linkpred.Engine)
	for _, mode := range []string{
		linkpred.ModeSingle,
		linkpred.ModeConcurrent,
		linkpred.ModeDirected,
		linkpred.ModeConcurrentDirected,
		linkpred.ModeWindowed,
		linkpred.ModeDynamic,
	} {
		e, err := linkpred.NewEngine(linkpred.EngineSpec{
			Mode:   mode,
			Config: cfg,
			Shards: 4,
			Window: 1 << 40, // one giant window: nothing expires
			Gens:   4,
		})
		if err != nil {
			t.Fatalf("NewEngine(%s): %v", mode, err)
		}
		engines[mode] = e
	}

	rng := rand.New(rand.NewSource(11))
	edges := make([]linkpred.Edge, 0, 600)
	for i := 0; i < 600; i++ {
		u, v := uint64(rng.Intn(60)), uint64(rng.Intn(60))
		edges = append(edges, linkpred.Edge{U: u, V: v, T: int64(i)})
	}
	for _, e := range engines {
		e.ObserveEdges(edges)
	}
	return engines
}

// TestFacadeParity is the table test over the measure × facade × entry
// point matrix: for every mode and every measure, Score, ScoreBatch, and
// TopK must succeed and agree with each other bit-for-bit on a quiescent
// store — ScoreBatch[i] equals Score(candidates[i]), and TopK is exactly
// the sequential sort-by-(score, id) reference over the same scores.
// This is what "one engine core" means operationally: no mode has its
// own divergent dispatch path for any measure.
func TestFacadeParity(t *testing.T) {
	engines := parityEngines(t)

	const src = uint64(3)
	candidates := make([]uint64, 0, 59)
	for v := uint64(0); v < 60; v++ {
		if v != src {
			candidates = append(candidates, v)
		}
	}

	for mode, e := range engines {
		for _, m := range linkpred.AllMeasures {
			t.Run(mode+"/"+m.String(), func(t *testing.T) {
				batch, err := e.ScoreBatch(m, src, candidates)
				if err != nil {
					t.Fatalf("ScoreBatch: %v", err)
				}
				if len(batch) != len(candidates) {
					t.Fatalf("ScoreBatch returned %d scores for %d candidates", len(batch), len(candidates))
				}
				for i, v := range candidates {
					want, err := e.Score(m, src, v)
					if err != nil {
						t.Fatalf("Score(%d): %v", v, err)
					}
					if batch[i] != want && !(math.IsNaN(batch[i]) && math.IsNaN(want)) {
						t.Fatalf("ScoreBatch[%d] (v=%d) = %v, want Score = %v", i, v, batch[i], want)
					}
				}

				got, err := e.TopK(m, src, candidates, 10)
				if err != nil {
					t.Fatalf("TopK: %v", err)
				}
				want := referenceTopK(src, candidates, batch, 10)
				if len(got) != len(want) {
					t.Fatalf("TopK returned %d results, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("TopK[%d] = %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// referenceTopK is an independent oracle: full sort of the batch scores
// by (score desc, id asc), NaN after everything, truncated to k.
func referenceTopK(src uint64, candidates []uint64, scores []float64, k int) []linkpred.Candidate {
	out := make([]linkpred.Candidate, 0, len(candidates))
	for i, v := range candidates {
		if v == src {
			continue
		}
		out = append(out, linkpred.Candidate{V: v, Score: scores[i]})
	}
	// Insertion sort: small N, and it keeps the oracle free of sort.Slice
	// comparator subtleties under NaN.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			aBetter := false
			na, nb := math.IsNaN(a.Score), math.IsNaN(b.Score)
			switch {
			case na != nb:
				aBetter = nb
			case a.Score != b.Score:
				aBetter = a.Score > b.Score
			default:
				aBetter = a.V < b.V
			}
			if aBetter {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestFacadeParityAcrossModes asserts the cross-mode agreements that
// must hold exactly: the sharded facade reproduces the single-writer
// facade bit-for-bit on the same stream (undirected and directed), an
// insert-only dynamic store reproduces it too (its recovery buffers'
// heads are the plain registers), and a windowed store whose window
// never expired anything agrees with the whole-stream Predictor on
// every measure (both use KMV distinct degrees here, and a single live
// generation merges to the same registers the plain store holds).
func TestFacadeParityAcrossModes(t *testing.T) {
	engines := parityEngines(t)

	pairs := [][2]string{
		{linkpred.ModeSingle, linkpred.ModeConcurrent},
		{linkpred.ModeDirected, linkpred.ModeConcurrentDirected},
		{linkpred.ModeSingle, linkpred.ModeDynamic},
	}
	for _, pr := range pairs {
		a, b := engines[pr[0]], engines[pr[1]]
		for _, m := range linkpred.AllMeasures {
			for u := uint64(0); u < 30; u++ {
				for v := uint64(0); v < 30; v++ {
					sa, errA := a.Score(m, u, v)
					sb, errB := b.Score(m, u, v)
					if errA != nil || errB != nil {
						t.Fatalf("%s/%s Score error: %v / %v", pr[0], pr[1], errA, errB)
					}
					if sa != sb && !(math.IsNaN(sa) && math.IsNaN(sb)) {
						t.Fatalf("%v(%d,%d): %s=%v, %s=%v", m, u, v, pr[0], sa, pr[1], sb)
					}
				}
			}
		}
	}

	// Windowed-with-infinite-window vs Predictor.
	single, windowed := engines[linkpred.ModeSingle], engines[linkpred.ModeWindowed]
	for _, m := range linkpred.AllMeasures {
		for u := uint64(0); u < 30; u++ {
			for v := u + 1; v < 30; v++ {
				ss, _ := single.Score(m, u, v)
				sw, _ := windowed.Score(m, u, v)
				if ss != sw {
					t.Fatalf("%v(%d,%d): single=%v, windowed=%v", m, u, v, ss, sw)
				}
			}
		}
	}
}

// tieredParityEngines is parityEngines with a register-budget ladder
// and a skewed stream: hub vertices cross both promotion thresholds
// mid-batch while the tail stays in the smallest tier, so every
// query below scores mixed-tier pairs.
func tieredParityEngines(t *testing.T) map[string]linkpred.Engine {
	t.Helper()
	cfg := linkpred.Config{
		K:               32,
		Seed:            7,
		DistinctDegrees: true,
		Tiers: [linkpred.MaxTiers]linkpred.Tier{
			{K: 8, PromoteAt: 0}, {K: 16, PromoteAt: 6}, {K: 32, PromoteAt: 24},
		},
	}
	engines := make(map[string]linkpred.Engine)
	for _, mode := range []string{
		linkpred.ModeSingle,
		linkpred.ModeConcurrent,
		linkpred.ModeDirected,
		linkpred.ModeConcurrentDirected,
		linkpred.ModeWindowed,
		linkpred.ModeDynamic,
	} {
		e, err := linkpred.NewEngine(linkpred.EngineSpec{
			Mode:             mode,
			Config:           cfg,
			Shards:           4,
			Window:           1 << 40,
			Gens:             4,
			ExpectedVertices: 60,
		})
		if err != nil {
			t.Fatalf("NewEngine(%s): %v", mode, err)
		}
		engines[mode] = e
	}

	rng := rand.New(rand.NewSource(13))
	edges := make([]linkpred.Edge, 0, 800)
	for i := 0; i < 800; i++ {
		u := uint64(rng.Intn(60) * rng.Intn(60) / 60) // skew toward low ids
		v := uint64(rng.Intn(60))
		if u == v {
			v = (v + 1) % 60
		}
		edges = append(edges, linkpred.Edge{U: u, V: v, T: int64(i)})
	}
	for _, e := range engines {
		e.ObserveEdges(edges)
	}
	return engines
}

// TestFacadeParityTiered re-runs the measure × facade × entry-point
// matrix over mixed-tier stores: with candidates spanning all three
// tiers, ScoreBatch must still equal pointwise Score bit-for-bit and
// TopK must equal the sequential oracle — the batched kernels may not
// cut cross-tier corners the sequential estimators don't.
func TestFacadeParityTiered(t *testing.T) {
	engines := tieredParityEngines(t)

	const src = uint64(1) // hot: promoted to the top tier by the skew
	candidates := make([]uint64, 0, 59)
	for v := uint64(0); v < 60; v++ {
		if v != src {
			candidates = append(candidates, v)
		}
	}

	for mode, e := range engines {
		occ := e.TierOccupancy()
		if len(occ) != 3 {
			t.Fatalf("%s: TierOccupancy = %v, want 3 tiers", mode, occ)
		}
		if occ[0] == 0 || occ[1]+occ[2] == 0 {
			t.Fatalf("%s: stream did not straddle tiers (occupancy %v); parity run is vacuous", mode, occ)
		}
		for _, m := range linkpred.AllMeasures {
			t.Run(mode+"/"+m.String(), func(t *testing.T) {
				batch, err := e.ScoreBatch(m, src, candidates)
				if err != nil {
					t.Fatalf("ScoreBatch: %v", err)
				}
				for i, v := range candidates {
					want, err := e.Score(m, src, v)
					if err != nil {
						t.Fatalf("Score(%d): %v", v, err)
					}
					if batch[i] != want && !(math.IsNaN(batch[i]) && math.IsNaN(want)) {
						t.Fatalf("ScoreBatch[%d] (v=%d) = %v, want Score = %v", i, v, batch[i], want)
					}
				}
				got, err := e.TopK(m, src, candidates, 10)
				if err != nil {
					t.Fatalf("TopK: %v", err)
				}
				want := referenceTopK(src, candidates, batch, 10)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("TopK[%d] = %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}

	// Cross-mode agreement holds tiered exactly as it does uniform.
	pairs := [][2]string{
		{linkpred.ModeSingle, linkpred.ModeConcurrent},
		{linkpred.ModeDirected, linkpred.ModeConcurrentDirected},
		{linkpred.ModeSingle, linkpred.ModeWindowed},
		{linkpred.ModeSingle, linkpred.ModeDynamic},
	}
	for _, pr := range pairs {
		a, b := engines[pr[0]], engines[pr[1]]
		for _, m := range linkpred.AllMeasures {
			for u := uint64(0); u < 30; u++ {
				for v := u + 1; v < 30; v++ {
					sa, _ := a.Score(m, u, v)
					sb, _ := b.Score(m, u, v)
					if sa != sb && !(math.IsNaN(sa) && math.IsNaN(sb)) {
						t.Fatalf("%v(%d,%d): %s=%v, %s=%v", m, u, v, pr[0], sa, pr[1], sb)
					}
				}
			}
		}
	}
}

// TestEngineRegistry exercises NewEngine/ModeOf/DirectedEngine and the
// mode errors.
func TestEngineRegistry(t *testing.T) {
	engines := parityEngines(t)
	for mode, e := range engines {
		if got := linkpred.ModeOf(e); got != mode {
			t.Fatalf("ModeOf = %q, want %q", got, mode)
		}
		wantDir := mode == linkpred.ModeDirected || mode == linkpred.ModeConcurrentDirected
		if got := linkpred.DirectedEngine(e); got != wantDir {
			t.Fatalf("DirectedEngine(%s) = %v, want %v", mode, got, wantDir)
		}
	}
	if _, err := linkpred.NewEngine(linkpred.EngineSpec{Mode: "bogus", Config: linkpred.Config{K: 8}}); err == nil {
		t.Fatal("want error for unknown mode")
	}
	if _, err := linkpred.NewEngine(linkpred.EngineSpec{Mode: linkpred.ModeSingle, Config: linkpred.Config{K: 0}}); err == nil {
		t.Fatal("want error for K=0")
	}
}

// TestLoadAnyEngine saves every mode's engine and restores each through
// the magic-sniffing loader: the restored engine must report the same
// mode and answer every measure identically.
func TestLoadAnyEngine(t *testing.T) {
	engines := parityEngines(t)
	for mode, e := range engines {
		t.Run(mode, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatalf("save: %v", err)
			}
			got, err := linkpred.LoadAnyEngine(&buf)
			if err != nil {
				t.Fatalf("LoadAnyEngine: %v", err)
			}
			if gm := linkpred.ModeOf(got); gm != mode {
				t.Fatalf("restored mode = %q, want %q", gm, mode)
			}
			if got.NumVertices() != e.NumVertices() || got.NumEdges() != e.NumEdges() {
				t.Fatalf("stats: got (%d, %d), want (%d, %d)",
					got.NumVertices(), got.NumEdges(), e.NumVertices(), e.NumEdges())
			}
			if got.Config() != e.Config() {
				t.Fatalf("config: got %+v, want %+v", got.Config(), e.Config())
			}
			for _, m := range linkpred.AllMeasures {
				for u := uint64(0); u < 25; u++ {
					for v := uint64(0); v < 25; v++ {
						want, _ := e.Score(m, u, v)
						have, _ := got.Score(m, u, v)
						if want != have && !(math.IsNaN(want) && math.IsNaN(have)) {
							t.Fatalf("%v(%d,%d): restored %v, want %v", m, u, v, have, want)
						}
					}
				}
			}
		})
	}

	if _, err := linkpred.LoadAnyEngine(bytes.NewReader([]byte("LPS1....gibberish"))); err == nil {
		t.Fatal("want error for stream-file magic")
	}
}

// TestSynchronizedConcurrency hammers a Synchronized-wrapped windowed
// engine (the strictest single-writer store) with a writer goroutine and
// several query goroutines; run under -race this proves the wrapper's
// locking actually covers the whole Engine surface.
func TestSynchronizedConcurrency(t *testing.T) {
	w, err := linkpred.NewWindowed(linkpred.Config{K: 32, Seed: 3}, 10_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := linkpred.Synchronize(w)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			e.ObserveEdge(linkpred.Edge{U: uint64(i % 40), V: uint64((i * 7) % 40), T: int64(i)})
			if i%64 == 0 {
				e.ObserveEdges([]linkpred.Edge{
					{U: uint64(i % 13), V: uint64(i % 29), T: int64(i)},
					{U: uint64(i % 17), V: uint64(i % 31), T: int64(i)},
				})
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cands := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
			for i := 0; i < 400; i++ {
				m := linkpred.AllMeasures[(g+i)%len(linkpred.AllMeasures)]
				if _, err := e.Score(m, uint64(i%40), uint64((i+g)%40)); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.ScoreBatch(m, uint64(g), cands); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.TopK(m, uint64(g), cands, 3); err != nil {
					t.Error(err)
					return
				}
				e.Degree(uint64(i % 40))
				e.Seen(uint64(i % 40))
				e.NumVertices()
				e.NumEdges()
				e.MemoryBytes()
				if i%100 == 0 {
					if err := e.Save(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	<-done
	wg.Wait()
}
