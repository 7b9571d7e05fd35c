package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// The KMV degree cache invariant: on every bank that counts distinct
// degrees, each live slot's cached fixed-point sum and empty count equal
// kmvSum of its registers, and every degree read equals kmvDistinct of
// the registers bit for bit — after any ingest path, promotion, reserve,
// and load.

// assertBankSums checks every live slot of b against kmvSum; a bank that
// does not count distinct degrees must keep no cache at all.
func assertBankSums(t *testing.T, label string, b *regBank) {
	t.Helper()
	for ti := range b.tiers {
		if !b.trackKMV {
			if len(b.tiers[ti].kmv)+len(b.tiers[ti].empty) != 0 {
				t.Fatalf("%s: arrival-degree bank keeps a KMV cache", label)
			}
			continue
		}
		tr := &b.tiers[ti]
		n := len(tr.vals) / tr.k
		if len(tr.kmv) != n || len(tr.empty) != n {
			t.Fatalf("%s: tier %d has %d slots but %d sums, %d empty counts", label, ti, n, len(tr.kmv), len(tr.empty))
		}
		free := make(map[int32]bool, len(tr.free))
		for _, idx := range tr.free {
			free[idx] = true
		}
		for idx := 0; idx < n; idx++ {
			if free[int32(idx)] {
				continue
			}
			sum, empty := kmvSum(tr.vals[idx*tr.k : (idx+1)*tr.k])
			if tr.kmv[idx] != sum || int(tr.empty[idx]) != empty {
				t.Fatalf("%s: tier %d slot %d caches (%d, %d empty), registers give (%d, %d empty)",
					label, ti, idx, tr.kmv[idx], tr.empty[idx], sum, empty)
			}
		}
	}
}

// refDegree is the from-scratch degree of a vertex with registers vals
// under cfg's degree mode.
func refDegree(cfg Config, vals []uint64, arrivals int64) float64 {
	if cfg.Degrees == DegreeArrivals {
		return float64(arrivals)
	}
	return kmvDistinct(vals, arrivals)
}

// sideRef is the from-scratch twin of sideDegree.
func sideRef(cfg Config, vals []uint64, arrivals int64) float64 {
	if arrivals == 0 {
		return 0
	}
	return refDegree(cfg, vals, arrivals)
}

func assertSameDegree(t *testing.T, label string, u uint64, got, want float64) {
	t.Helper()
	if !sameFloat(got, want) {
		t.Fatalf("%s: degree of %d = %v from the cache, %v from the registers", label, u, got, want)
	}
}

// assertKMVCache checks the invariant on all banks of s and on every
// public degree read.
func assertKMVCache(t *testing.T, label string, s Store) {
	t.Helper()
	switch s := s.(type) {
	case *SketchStore:
		assertBankSums(t, label, &s.bank)
		for u, st := range s.vertices {
			assertSameDegree(t, label, u, s.Degree(u), refDegree(s.cfg, s.bank.regs(st.slot), st.arrivals))
		}
	case *Sharded:
		for i, sh := range s.shards {
			l := fmt.Sprintf("%s shard %d", label, i)
			assertBankSums(t, l, &sh.bank)
			for u, st := range sh.vertices {
				assertSameDegree(t, l, u, s.Degree(u), refDegree(sh.cfg, sh.bank.regs(st.slot), st.arrivals))
			}
		}
	case *DirectedStore:
		assertBankSums(t, label+" out", &s.out)
		assertBankSums(t, label+" in", &s.in)
		for u, st := range s.vertices {
			assertSameDegree(t, label+" out", u, s.OutDegree(u), sideRef(s.cfg, s.out.regs(st.outSlot), st.outArr))
			assertSameDegree(t, label+" in", u, s.InDegree(u), sideRef(s.cfg, s.in.regs(st.inSlot), st.inArr))
		}
	case *ShardedDirected:
		for i, sh := range s.shards {
			l := fmt.Sprintf("%s shard %d", label, i)
			assertBankSums(t, l+" out", &sh.out)
			assertBankSums(t, l+" in", &sh.in)
			for u, st := range sh.vertices {
				assertSameDegree(t, l+" out", u, s.OutDegree(u), sideRef(sh.cfg, sh.out.regs(st.outSlot), st.outArr))
				assertSameDegree(t, l+" in", u, s.InDegree(u), sideRef(sh.cfg, sh.in.regs(st.inSlot), st.inArr))
			}
		}
	case *Windowed:
		for i, g := range s.gens {
			assertKMVCache(t, fmt.Sprintf("%s generation %d", label, i), g)
		}
	case *DynamicStore:
		// No bank: its degrees are summed from scratch on every read.
	default:
		t.Fatalf("%s: no cache check for %T", label, s)
	}
}

// walReplay appends edges to a fresh log in batches of 257, then
// replays the log into apply — the recovery path a server takes on boot.
func walReplay(t *testing.T, kind wal.Kind, edges []stream.Edge, apply func([]stream.Edge)) {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(edges); lo += 257 {
		if _, err := w.Append(kind, edges[lo:min(lo+257, len(edges))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Replay(nil, dir, 0, func(r wal.Record) error {
		apply(r.Edges)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// inChunks feeds edges to apply in fixed-size batches.
func inChunks(edges []stream.Edge, size int, apply func([]stream.Edge)) {
	for lo := 0; lo < len(edges); lo += size {
		apply(edges[lo:min(lo+size, len(edges))])
	}
}

// must unwraps a constructor result; the table's configs are all valid.
func must[S any](s S, err error) S {
	if err != nil {
		panic(err)
	}
	return s
}

func TestKMVCacheInvariant(t *testing.T) {
	edges := skewedEdges(300, 4000, 79)
	edges = append(edges, edges[:200]...) // duplicates fold without moving any sum
	cases := []struct {
		name  string
		build func(t *testing.T, cfg Config) Store
	}{
		{"plain/sequential", func(t *testing.T, cfg Config) Store {
			s := must(NewSketchStore(cfg))
			s.ProcessEdges(edges)
			return s
		}},
		{"plain/reserve", func(t *testing.T, cfg Config) Store {
			s := must(NewSketchStore(cfg))
			s.Reserve(300)
			s.ProcessEdges(edges)
			return s
		}},
		{"sharded/per-edge", func(t *testing.T, cfg Config) Store {
			s := must(NewSharded(cfg, 4))
			for _, e := range edges {
				s.ProcessEdge(e)
			}
			return s
		}},
		{"sharded/batched", func(t *testing.T, cfg Config) Store {
			s := must(NewSharded(cfg, 4))
			inChunks(edges, 256, s.ProcessEdges)
			return s
		}},
		{"sharded/reserve", func(t *testing.T, cfg Config) Store {
			s := must(NewSharded(cfg, 4))
			s.Reserve(300)
			inChunks(edges, 256, s.ProcessEdges)
			return s
		}},
		{"sharded/pipelined", func(t *testing.T, cfg Config) Store {
			s := must(NewSharded(cfg, 4))
			if !s.StartPipeline(2, 0) {
				t.Fatal("StartPipeline(2) refused")
			}
			inChunks(edges, 97, s.ProcessEdgesAsync)
			s.FlushIngest()
			s.StopPipeline()
			return s
		}},
		{"sharded/wal-replay", func(t *testing.T, cfg Config) Store {
			s := must(NewSharded(cfg, 4))
			walReplay(t, wal.KindEdge, edges, s.ProcessEdges)
			return s
		}},
		{"directed/sequential", func(t *testing.T, cfg Config) Store {
			s := must(NewDirectedStore(cfg))
			for _, e := range edges {
				s.ProcessArc(e)
			}
			return s
		}},
		{"directed/reserve", func(t *testing.T, cfg Config) Store {
			s := must(NewDirectedStore(cfg))
			s.Reserve(300)
			for _, e := range edges {
				s.ProcessArc(e)
			}
			return s
		}},
		{"sharded-directed/per-arc", func(t *testing.T, cfg Config) Store {
			s := must(NewShardedDirected(cfg, 4))
			for _, e := range edges {
				s.ProcessArc(e)
			}
			return s
		}},
		{"sharded-directed/batched", func(t *testing.T, cfg Config) Store {
			s := must(NewShardedDirected(cfg, 4))
			s.Reserve(300)
			inChunks(edges, 256, s.ProcessArcs)
			return s
		}},
		{"sharded-directed/pipelined", func(t *testing.T, cfg Config) Store {
			s := must(NewShardedDirected(cfg, 4))
			if !s.StartPipeline(2, 0) {
				t.Fatal("StartPipeline(2) refused")
			}
			inChunks(edges, 97, s.ProcessArcsAsync)
			s.FlushIngest()
			s.StopPipeline()
			return s
		}},
		{"sharded-directed/wal-replay", func(t *testing.T, cfg Config) Store {
			s := must(NewShardedDirected(cfg, 4))
			walReplay(t, wal.KindArc, edges, s.ProcessArcs)
			return s
		}},
	}
	uniform := Config{K: 32, Seed: 71, Degrees: DegreeDistinctKMV}
	tiered := tieredCfg(73)
	tiered.Degrees = DegreeDistinctKMV
	for _, layout := range []struct {
		name string
		cfg  Config
	}{{"uniform", uniform}, {"tiered", tiered}} {
		for _, tc := range cases {
			t.Run(layout.name+"/"+tc.name, func(t *testing.T) {
				s := tc.build(t, layout.cfg)
				assertKMVCache(t, "ingested", s)
				if layout.cfg.tiered() && !reusedFreeSlot(s) {
					// The ladder must have promoted vertices and handed
					// their vacated tier-0 slots to newer ones.
					t.Fatal("no promotion-vacated slot was reused")
				}
				img := saveBytes(t, s.Save)
				// v1 images (uniform) take the parallel shard decoder at
				// GOMAXPROCS > 1; v2 (tiered) falls back to sequential.
				for _, procs := range []int{1, 4} {
					prev := runtime.GOMAXPROCS(procs)
					loaded, err := LoadAny(bytes.NewReader(img))
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					assertKMVCache(t, fmt.Sprintf("loaded at GOMAXPROCS=%d", procs), loaded)
					if !bytes.Equal(saveBytes(t, loaded.Save), img) {
						t.Fatalf("GOMAXPROCS=%d: reloaded image re-saves differently", procs)
					}
				}
			})
		}
	}
}

// storeBanks lists every register bank of a bank-backed store.
func storeBanks(s Store) []*regBank {
	switch s := s.(type) {
	case *SketchStore:
		return []*regBank{&s.bank}
	case *Sharded:
		var bs []*regBank
		for _, sh := range s.shards {
			bs = append(bs, &sh.bank)
		}
		return bs
	case *DirectedStore:
		return []*regBank{&s.out, &s.in}
	case *ShardedDirected:
		var bs []*regBank
		for _, sh := range s.shards {
			bs = append(bs, &sh.out, &sh.in)
		}
		return bs
	}
	return nil
}

// reusedFreeSlot reports whether some bank of s handed a tier-0 slot
// vacated by promotion to a newer vertex: every live slot entered tier 0
// once, so the arena is then smaller than the live slot count.
func reusedFreeSlot(s Store) bool {
	for _, b := range storeBanks(s) {
		if tr := &b.tiers[0]; len(tr.vals)/tr.k < b.slots() {
			return true
		}
	}
	return false
}

// TestConstructorsRejectUnloadableK pins that a store can only be built
// with a register count its own image loads back with: the constructors
// and the loaders share one bound, which also bounds the KMV fixed-point
// sum.
func TestConstructorsRejectUnloadableK(t *testing.T) {
	for _, k := range []int{0, maxPersistK + 1, math.MaxInt} {
		cfg := Config{K: k, Seed: 1}
		if _, err := NewSketchStore(cfg); err == nil {
			t.Errorf("NewSketchStore accepted K=%d", k)
		}
		if _, err := NewSharded(cfg, 2); err == nil {
			t.Errorf("NewSharded accepted K=%d", k)
		}
		if _, err := NewDirectedStore(cfg); err == nil {
			t.Errorf("NewDirectedStore accepted K=%d", k)
		}
		if _, err := NewShardedDirected(cfg, 2); err == nil {
			t.Errorf("NewShardedDirected accepted K=%d", k)
		}
		if _, err := NewDynamicStore(cfg, 0); err == nil {
			t.Errorf("NewDynamicStore accepted K=%d", k)
		}
	}
	wide := Config{K: maxPersistK + 1, Tiers: [MaxTiers]Tier{{K: 8}, {K: maxPersistK + 1, PromoteAt: 4}}}
	if _, err := NewSketchStore(wide); err == nil {
		t.Error("NewSketchStore accepted a tier wider than any loader reads")
	}

	// The widest accepted store round-trips through its own loader.
	s, err := NewSketchStore(Config{K: maxPersistK, Seed: 1, Degrees: DegreeDistinctKMV})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSketchStore(bytes.NewReader(saveBytes(t, s.Save))); err != nil {
		t.Fatalf("K=%d image does not load: %v", maxPersistK, err)
	}

	// And its worst-case KMV sum — every register at the largest term —
	// still fits the fixed-point accumulator.
	hi, lo := bits.Mul64(kmvTerm(emptyRegister-1), maxPersistK)
	if hi != 0 || lo >= 1<<63 {
		t.Fatalf("K=%d worst-case KMV sum overflows: %d×%d", maxPersistK, kmvTerm(emptyRegister-1), maxPersistK)
	}
}
