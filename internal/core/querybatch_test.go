package core

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// sameFloat reports bit-identity, treating any NaN as equal to any NaN
// (the batch path must reproduce the sequential estimators exactly; NaN
// payload bits are the one representation detail the spec does not pin).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// batchEdges builds a small scale-free-ish multigraph with duplicates
// and returns the edge list plus a candidate list that exercises every
// awkward case: unknown ids, the source itself, and duplicates.
func batchEdges(seed uint64, nEdges int) ([]stream.Edge, []uint64) {
	x := rng.NewXoshiro256(seed)
	edges := make([]stream.Edge, 0, nEdges)
	for i := 0; i < nEdges; i++ {
		u := uint64(x.Intn(200))
		v := uint64(x.Intn(200))
		edges = append(edges, stream.Edge{U: u, V: v, T: int64(i)})
	}
	cands := make([]uint64, 0, 260)
	for v := uint64(0); v < 220; v++ { // 200..219 are unknown
		cands = append(cands, v)
	}
	for i := 0; i < 40; i++ { // duplicates
		cands = append(cands, uint64(x.Intn(220)))
	}
	return edges, cands
}

// seqScore evaluates one measure with the sequential per-pair estimator
// of any store exposing the full estimator set.
type fullEstimator interface {
	EstimateJaccard(u, v uint64) float64
	EstimateCommonNeighbors(u, v uint64) float64
	EstimateAdamicAdar(u, v uint64) float64
	EstimateResourceAllocation(u, v uint64) float64
	EstimatePreferentialAttachment(u, v uint64) float64
	EstimateCosine(u, v uint64) float64
}

func seqScore(s fullEstimator, m QueryMeasure, u, v uint64) float64 {
	switch m {
	case QueryJaccard:
		return s.EstimateJaccard(u, v)
	case QueryCommonNeighbors:
		return s.EstimateCommonNeighbors(u, v)
	case QueryAdamicAdar:
		return s.EstimateAdamicAdar(u, v)
	case QueryResourceAllocation:
		return s.EstimateResourceAllocation(u, v)
	case QueryPreferentialAttachment:
		return s.EstimatePreferentialAttachment(u, v)
	case QueryCosine:
		return s.EstimateCosine(u, v)
	}
	panic("unknown measure")
}

var allQueryMeasures = []QueryMeasure{
	QueryJaccard, QueryCommonNeighbors, QueryAdamicAdar,
	QueryResourceAllocation, QueryPreferentialAttachment, QueryCosine,
}

func TestShardedScoreBatchMatchesSequential(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		edges, cands := batchEdges(7, 2000)
		s, err := NewSharded(Config{K: 32, Seed: 9, Degrees: degrees}, 8)
		if err != nil {
			t.Fatal(err)
		}
		s.ProcessEdges(edges)
		for _, src := range []uint64{edges[0].U, 3, 999 /* unknown */} {
			for _, m := range allQueryMeasures {
				got, err := s.ScoreBatch(m, src, cands, nil, nil)
				if err != nil {
					t.Fatalf("degrees=%v ScoreBatch(%v): %v", degrees, m, err)
				}
				if len(got) != len(cands) {
					t.Fatalf("got %d scores for %d candidates", len(got), len(cands))
				}
				for i, v := range cands {
					want := seqScore(s, m, src, v)
					if !sameFloat(got[i], want) {
						t.Fatalf("degrees=%v m=%v u=%d v=%d: batch=%v seq=%v",
							degrees, m, src, v, got[i], want)
					}
				}
			}
		}
	}
}

// mallocsPerCall returns the heap allocations per call of fn at
// GOMAXPROCS procs, averaged over 1000 calls after a warm-up call that
// fills the scratch pools. (testing.AllocsPerRun cannot compare
// GOMAXPROCS settings: it pins GOMAXPROCS to 1.)
func mallocsPerCall(procs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const calls = 1000
	var before, after runtime.MemStats
	fn()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / calls
}

// TestShardedScoreBatchSmallRunsInline: a batch below minScoreChunk
// distinct candidates scores its shards on the calling goroutine, so it
// allocates no more per call at GOMAXPROCS 2 than at GOMAXPROCS 1 — and,
// with a caller-supplied out, nothing at all: an inline run puts no
// closure and no flag on the heap.
func TestShardedScoreBatchSmallRunsInline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	edges, _ := batchEdges(7, 2000)
	s, err := NewSharded(Config{K: 32, Seed: 9, Degrees: DegreeDistinctKMV}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcessEdges(edges)
	cands := make([]uint64, 16)
	for i := range cands {
		cands[i] = uint64(11 * i) // spread over the shards
	}
	out := make([]float64, len(cands))
	score := func() {
		if _, err := s.ScoreBatch(QueryJaccard, edges[0].U, cands, out, nil); err != nil {
			t.Fatal(err)
		}
	}
	if one, two := mallocsPerCall(1, score), mallocsPerCall(2, score); two != one {
		t.Fatalf("16-candidate ScoreBatch: %d allocs per call at GOMAXPROCS 2, %d at GOMAXPROCS 1", two, one)
	} else if one != 0 {
		t.Fatalf("16-candidate ScoreBatch into a supplied out: %d allocs per call, want 0", one)
	}
}

// TestScoreBatchMatchesEstimateFanOut runs every store's batch path on
// more distinct candidates than one worker takes, at GOMAXPROCS 2, so
// the shard set's shard fan-out and the single-writer assembler's
// chunked fan-out both start workers; the scores must still equal
// per-pair Estimate, bit for bit.
func TestScoreBatchMatchesEstimateFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	x := rng.NewXoshiro256(5)
	edges := make([]stream.Edge, 20000)
	for i := range edges {
		edges[i] = stream.Edge{U: uint64(x.Intn(3000)), V: uint64(x.Intn(3000)), T: int64(i)}
	}
	cands := make([]uint64, 4*minScoreChunk)
	for i := range cands {
		cands[i] = uint64(i)
	}
	cfg := Config{K: 32, Seed: 3, Degrees: DegreeDistinctKMV}
	for _, tc := range []struct {
		name  string
		store Store
	}{
		{"sharded", must(NewSharded(cfg, 8))},
		{"sharded-directed", must(NewShardedDirected(cfg, 8))},
		{"single", must(NewSketchStore(cfg))},
		{"directed", must(NewDirectedStore(cfg))},
		{"windowed", must(NewWindowed(cfg, 1<<40, 4))},
		{"dynamic", must(NewDynamicStore(cfg, 0))},
	} {
		if err := tc.store.IngestBatch(edges, nil); err != nil {
			t.Fatal(err)
		}
		for _, m := range allQueryMeasures {
			got, err := tc.store.ScoreBatch(m, 7, cands, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range cands {
				if want, _ := tc.store.Estimate(m, 7, v); !sameFloat(got[i], want) {
					t.Fatalf("%s %v v=%d: batch %v, Estimate %v", tc.name, m, v, got[i], want)
				}
			}
		}
	}
}

func TestShardedScoreBatchRejectsBadMeasure(t *testing.T) {
	s, err := NewSharded(Config{K: 8, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScoreBatch(QueryMeasure(99), 1, []uint64{2}, nil, nil); err == nil {
		t.Fatal("want error for invalid measure")
	}
}

func TestShardedDirectedScoreBatchMatchesSequential(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		edges, cands := batchEdges(11, 2000)
		s, err := NewShardedDirected(Config{K: 32, Seed: 5, Degrees: degrees}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.ProcessArc(e)
		}
		for _, src := range []uint64{edges[0].U, 3, 999} {
			for _, m := range allQueryMeasures {
				got, err := s.ScoreBatch(m, src, cands, nil, nil)
				if err != nil {
					t.Fatalf("degrees=%v ScoreBatch(%v): %v", degrees, m, err)
				}
				for i, v := range cands {
					if want := seqScore(s, m, src, v); !sameFloat(got[i], want) {
						t.Fatalf("degrees=%v m=%v u=%d v=%d: batch=%v seq=%v",
							degrees, m, src, v, got[i], want)
					}
				}
			}
		}
	}
}

func TestSketchStoreScoreBatchMatchesSequential(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		edges, cands := batchEdges(13, 2000)
		s, err := NewSketchStore(Config{K: 32, Seed: 3, Degrees: degrees})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.ProcessEdge(e)
		}
		for _, src := range []uint64{edges[0].U, 3, 999} {
			for _, m := range allQueryMeasures {
				got, err := s.ScoreBatch(m, src, cands, nil, nil)
				if err != nil {
					t.Fatalf("degrees=%v ScoreBatch(%v): %v", degrees, m, err)
				}
				for i, v := range cands {
					if want := seqScore(s, m, src, v); !sameFloat(got[i], want) {
						t.Fatalf("degrees=%v m=%v u=%d v=%d: batch=%v seq=%v",
							degrees, m, src, v, got[i], want)
					}
				}
			}
		}
	}
}

func TestWindowedScoreBatchMatchesSequential(t *testing.T) {
	edges, cands := batchEdges(17, 2000)
	w, err := NewWindowed(Config{K: 32, Seed: 21, Degrees: DegreeDistinctKMV}, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		w.ProcessEdge(e) // timestamps 0..1999 force rotations mid-stream
	}
	for _, src := range []uint64{edges[len(edges)-1].U, 3, 999} {
		for _, m := range allQueryMeasures {
			got, err := w.ScoreBatch(m, src, cands, nil, nil)
			if err != nil {
				t.Fatalf("ScoreBatch(%v): %v", m, err)
			}
			for i, v := range cands {
				if want := seqScore(w, m, src, v); !sameFloat(got[i], want) {
					t.Fatalf("m=%v u=%d v=%d: batch=%v seq=%v", m, src, v, got[i], want)
				}
			}
		}
	}
}

// TestShardedScoreBatchRace exercises batched queries racing batched and
// per-edge writers; run with -race. Scores are not asserted (writers are
// concurrent), only memory safety and result shape. The KMV case races
// Adamic–Adar — candidate degrees and the midpoint weights both read the
// banks' degree cache — against writers that update it.
func TestShardedScoreBatchRace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		degrees  DegreeMode
		measures []QueryMeasure
	}{
		{"arrivals/all-measures", DegreeArrivals, allQueryMeasures},
		{"kmv/adamic-adar", DegreeDistinctKMV, []QueryMeasure{QueryAdamicAdar}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges, cands := batchEdges(23, 4000)
			s, err := NewSharded(Config{K: 16, Seed: 2, Degrees: tc.degrees}, 8)
			if err != nil {
				t.Fatal(err)
			}
			s.ProcessEdges(edges[:1000])
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(chunk []stream.Edge) {
					defer wg.Done()
					for lo := 0; lo < len(chunk); lo += 128 {
						s.ProcessEdges(chunk[lo:min(lo+128, len(chunk))])
					}
				}(edges[1000+w*1500 : 1000+(w+1)*1500])
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						m := tc.measures[i%len(tc.measures)]
						got, err := s.ScoreBatch(m, cands[i%len(cands)], cands, nil, nil)
						if err != nil {
							t.Error(err)
							return
						}
						if len(got) != len(cands) {
							t.Errorf("got %d scores, want %d", len(got), len(cands))
							return
						}
					}
				}(uint64(r))
			}
			wg.Wait()
		})
	}
}

// TestShardedScoreBatchFanOutRace races batches big enough to start the
// shard fan-out's workers (1,024 distinct candidates at GOMAXPROCS 2)
// against batched writers, on both shard-set stores; run with -race.
// Only memory safety and result shape are asserted.
func TestShardedScoreBatchFanOutRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	edges, _ := batchEdges(41, 4000)
	cands := make([]uint64, 4*minScoreChunk)
	for i := range cands {
		cands[i] = uint64(i)
	}
	cfg := Config{K: 16, Seed: 2, Degrees: DegreeDistinctKMV}
	for _, s := range []Store{must(NewSharded(cfg, 8)), must(NewShardedDirected(cfg, 8))} {
		if err := s.IngestBatch(edges[:1000], nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for lo := 1000; lo < len(edges); lo += 128 {
				if err := s.IngestBatch(edges[lo:min(lo+128, len(edges))], nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				got, err := s.ScoreBatch(allQueryMeasures[i%len(allQueryMeasures)], cands[i], cands, nil, nil)
				if err != nil || len(got) != len(cands) {
					t.Errorf("ScoreBatch: %d scores for %d candidates, err %v", len(got), len(cands), err)
					return
				}
			}
		}()
		wg.Wait()
	}
}

// TestShardedGauges verifies the lock-free NumVertices/MemoryBytes
// gauges stay exact through per-edge ingest, batched ingest, and a
// save/load roundtrip.
func TestShardedGauges(t *testing.T) {
	edges, _ := batchEdges(29, 3000)
	s, err := NewSharded(Config{K: 16, Seed: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, s *Sharded) {
		t.Helper()
		n, mem := 0, 0
		for i := range s.shards {
			s.mus[i].RLock()
			n += len(s.shards[i].vertices)
			mem += s.shards[i].bank.memoryBytes() + len(s.shards[i].vertices)*vertexOverhead
			s.mus[i].RUnlock()
		}
		if got := s.NumVertices(); got != n {
			t.Fatalf("%s: NumVertices=%d, locked recount=%d", label, got, n)
		}
		if got := s.MemoryBytes(); got != mem {
			t.Fatalf("%s: MemoryBytes=%d, locked recount=%d", label, got, mem)
		}
	}
	for _, e := range edges[:500] {
		s.ProcessEdge(e)
	}
	check("per-edge", s)
	s.ProcessEdges(edges[500:])
	check("batched", s)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded)
	if loaded.NumVertices() != s.NumVertices() || loaded.MemoryBytes() != s.MemoryBytes() {
		t.Fatalf("roundtrip gauges drifted: %d/%d vs %d/%d",
			loaded.NumVertices(), loaded.MemoryBytes(), s.NumVertices(), s.MemoryBytes())
	}
}
