package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// The shard set is the concurrency layer behind both thread-safe stores,
// Sharded (shards of SketchStore) and ShardedDirected (shards of
// DirectedStore). Vertices are partitioned by hash across n shards, each
// an independent single-writer store guarded by its own RWMutex. All
// shards share one Config and therefore one hash family, so registers
// from different shards remain comparable and every estimator is well
// defined across shards.
//
// The set owns everything that does not depend on what a shard stores:
// the locks and the shard map, the edge counter and per-shard gauges,
// per-edge and batched ingest (batch.go), the pair snapshot behind
// Estimate, ScoreBatch
// (querybatch.go), and the LPSH/LPDH container framing
// (sharded_persist.go). A shard store contributes the shardStore hooks:
// which register bank each side of an edge folds into, and which bank
// each side of a query reads. That is the whole difference between the
// undirected and the directed reading — a directed pair scores u's
// out-sketch against v's in-sketch with the same formulas an undirected
// pair uses.
//
// Locking. An edge updates exactly two vertex states, so per-edge ingest
// locks at most two shards, in index order, which makes writer lock
// acquisition deadlock-free. Queries take read locks; the weighted
// estimators (Adamic–Adar, resource allocation) read the matched common
// neighbors under the pair's locks, release them, and then look up each
// sampled neighbor's degree one shard at a time — never holding more
// than the ordered pair, so readers cannot deadlock with writers either.
// Under concurrent ingest a weighted estimate may therefore mix register
// state from one instant with degrees read a few microseconds later; the
// estimators are continuous in the degrees, so the perturbation is
// bounded by the ingest rate and irrelevant in practice.

// maxShards bounds the shard count. It is the largest count a container
// image may declare (the loaders reject more as corrupt), so every store
// the constructors accept can reload its own image.
const maxShards = 1 << 16

// shardStore is one shard of a shard set: the Store surface plus three
// hooks the set calls under the shard's lock. Each hook runs at most
// once per half-edge, per query endpoint, or per shard per batch, so
// the register loops inside them stay concrete.
type shardStore interface {
	Store

	// foldHalf folds neighbor nbr, whose precomputed hash vector is h,
	// into owner's sketch: its out-sketch when out is set and its
	// in-sketch otherwise on directed stores; undirected stores have one
	// sketch and ignore out. The caller holds the write lock; hashing
	// happens outside it.
	foldHalf(owner, nbr uint64, out bool, h []uint64)

	// applyBatch runs stage 4 of the batch pipeline (batch.go) over this
	// store's share of the prepared batch sc: the distinct vertices at
	// sc.vertGroup.order[lo:hi]. The caller holds the write lock.
	applyBatch(sc *batchScratch, lo, hi int32)

	// side resolves u for one side of a pair query — the source side when
	// src is set, the candidate side otherwise (the one bank on
	// undirected stores; the out-bank and the in-bank on directed ones).
	// It returns the bank, which is the same for every vertex on that
	// side, u's slot in it, and, when deg is set, u's degree on that
	// side. ok is false when u is unknown. The caller holds a read lock.
	side(u uint64, src, deg bool) (b *regBank, slot int32, d float64, ok bool)
}

// bankSpan turns a side hook's result into u's register and argmin
// spans in the bank.
func bankSpan(b *regBank, slot int32, d float64, ok bool) ([]uint64, []uint64, float64, bool) {
	if !ok {
		return nil, nil, 0, false
	}
	return b.regs(slot), b.argmins(slot), d, true
}

// shardKind is what a shard set needs to know about its store type
// beyond the hooks: how to build and decode one shard, whether batch
// half-edges carry out/in sides, and the container framing.
type shardKind[T shardStore] struct {
	name     string // for error messages
	magic    string // container image magic
	directed bool
	newShard func(Config) (T, error)
	decode   func(*binReader) (T, error)
	format   *storeFormat // sizes a shard image before decoding it
}

// shardSet is the generic sharded store; Sharded and ShardedDirected
// embed it.
type shardSet[T shardStore] struct {
	kind   *shardKind[T]
	cfg    Config // every shard's configuration
	shards []T
	mus    []sync.RWMutex
	// family hashes for every shard. Since all shards share cfg, a hash
	// vector computed outside any lock is valid on whichever shard its
	// half-edge lands on.
	family *lazyFamily
	edges  atomic.Int64 // edges processed; arcs on directed stores

	// Per-shard gauges refreshed at the tail of every write-locked apply
	// (per-edge, batched, load), so aggregate scrapes (NumVertices,
	// MemoryBytes — hit on every /metrics poll) are O(shards) lock-free
	// reads instead of taking and releasing every shard lock serially
	// per call.
	vertGauge []atomic.Int64
	memGauge  []atomic.Int64
}

// init builds an empty set of nShards stores, all configured by cfg.
func (s *shardSet[T]) init(kind *shardKind[T], cfg Config, nShards int) error {
	if nShards < 1 || nShards > maxShards {
		return fmt.Errorf("core: a %s store needs 1 <= nShards <= %d, got %d", kind.name, maxShards, nShards)
	}
	shards := make([]T, nShards)
	for i := range shards {
		st, err := kind.newShard(cfg)
		if err != nil {
			return err
		}
		shards[i] = st
	}
	s.adopt(kind, shards)
	return nil
}

// adopt installs shards, which share one Config, with fresh locks and
// zeroed gauges.
func (s *shardSet[T]) adopt(kind *shardKind[T], shards []T) {
	s.kind = kind
	s.cfg = shards[0].Config()
	s.shards = shards
	s.mus = make([]sync.RWMutex, len(shards))
	s.family = &lazyFamily{cfg: s.cfg}
	s.vertGauge = make([]atomic.Int64, len(shards))
	s.memGauge = make([]atomic.Int64, len(shards))
}

// Config returns the per-shard configuration.
func (s *shardSet[T]) Config() Config { return s.cfg }

// NumShards returns the shard count.
func (s *shardSet[T]) NumShards() int { return len(s.shards) }

func (s *shardSet[T]) shardOf(u uint64) int { return shardFor(u, len(s.shards)) }

// shardFor is the shard that a set of n shards places vertex u in.
func shardFor(u uint64, n int) int { return int(rng.Mix64(u) % uint64(n)) }

// Reserve pre-sizes every shard for its share of n expected vertices
// (see SketchStore.Reserve). Safe for concurrent use.
func (s *shardSet[T]) Reserve(n int) {
	if n <= 0 {
		return
	}
	per := (n + len(s.shards) - 1) / len(s.shards)
	for i := range s.shards {
		s.mus[i].Lock()
		s.shards[i].Reserve(per)
		s.mus[i].Unlock()
	}
}

// TierOccupancy returns the live slot count per register tier summed
// across shards (and across both sketch sides on directed stores), or
// nil for a uniform store. Safe for concurrent use.
func (s *shardSet[T]) TierOccupancy() []int {
	var total []int
	for i := range s.shards {
		s.mus[i].RLock()
		counts := s.shards[i].TierOccupancy()
		s.mus[i].RUnlock()
		if counts == nil {
			return nil
		}
		if total == nil {
			total = make([]int, len(counts))
		}
		for t, c := range counts {
			total[t] += c
		}
	}
	return total
}

// edgeHashPool recycles the 2K-word hash buffer of single-edge ingest so
// the hot path stays allocation-free without serializing callers on a
// per-store buffer (hashing into a shard's own buffer would have to
// happen inside the shard lock, making lock hold time O(K) hash
// evaluations).
var edgeHashPool = sync.Pool{New: func() any { return new([]uint64) }}

// Ingest folds one edge into the sketches of both endpoints — the arc
// U → V into U's out-sketch and V's in-sketch on directed stores. Safe
// for concurrent use. Both hash vectors are computed before any lock is
// taken, so the locks cover only the O(K) register merges. For bulk
// ingest prefer IngestBatch, which additionally amortizes lock
// acquisitions over whole batches.
func (s *shardSet[T]) Ingest(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	k := s.cfg.K
	bufp := edgeHashPool.Get().(*[]uint64)
	buf := grow(*bufp, 2*k)
	s.family.get().HashAllTo(e.V, buf[:k]) // folded into U's sketch
	s.family.get().HashAllTo(e.U, buf[k:]) // folded into V's sketch
	a, b := s.shardOf(e.U), s.shardOf(e.V)
	if a > b {
		s.mus[b].Lock()
		s.mus[a].Lock()
	} else if a == b {
		s.mus[a].Lock()
	} else {
		s.mus[a].Lock()
		s.mus[b].Lock()
	}
	s.shards[a].foldHalf(e.U, e.V, true, buf[:k])
	s.shards[b].foldHalf(e.V, e.U, false, buf[k:])
	s.refreshGauges(a)
	if b != a {
		s.refreshGauges(b)
	}
	s.mus[a].Unlock()
	if b != a {
		s.mus[b].Unlock()
	}
	s.edges.Add(1)
	*bufp = buf
	edgeHashPool.Put(bufp)
}

// refreshGauges re-derives shard's vertex-count and memory gauges from
// the shard's live state. The caller must hold the shard's write lock,
// which makes each reading a consistent snapshot of the shard at some
// instant. The memory figure is the shard's own MemoryBytes — its
// banks' actual storage, not an assumed bytes-per-register constant,
// plus the per-vertex charge.
func (s *shardSet[T]) refreshGauges(shard int) {
	st := s.shards[shard]
	s.vertGauge[shard].Store(int64(st.NumVertices()))
	s.memGauge[shard].Store(int64(st.MemoryBytes()))
}

// pairQuery reads the query state of (u, v) — register matches between
// u's source side and v's candidate side, the two side degrees, and
// (when collect is true) the argmin ids of matching registers — under
// the ordered pair of read locks (measure-kernel hook; see
// measure_kernel.go). Matched ids are appended to idBuf, so callers
// that pass a reused buffer keep the weighted-query hot path
// allocation-free.
func (s *shardSet[T]) pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, du, dv float64, known bool, ids []uint64) {
	a, b := s.shardOf(u), s.shardOf(v)
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	s.mus[lo].RLock()
	if hi != lo {
		s.mus[hi].RLock()
	}
	defer func() {
		if hi != lo {
			s.mus[hi].RUnlock()
		}
		s.mus[lo].RUnlock()
	}()
	uv, uIDs, du, okU := bankSpan(s.shards[a].side(u, true, true))
	vv, _, dv, okV := bankSpan(s.shards[b].side(v, false, true))
	if !okU || !okV {
		return 0, 0, 0, 0, false, idBuf // hand idBuf back so callers keep its capacity
	}
	matches, effK, ids = matchPrefix(uv, vv, uIDs, collect, idBuf)
	return matches, effK, du, dv, true, ids
}

// midpointDegree weights common-neighbor midpoints by Degree (measure
// kernel hook), one shard lock at a time, after pairQuery has released
// the pair's locks (see the locking note at the top of this file).
func (s *shardSet[T]) midpointDegree(w uint64) float64 { return s.Degree(w) }

// Estimate returns the estimate of any query measure for (u, v) — the
// candidate arc u → v on directed stores. Safe for concurrent use:
// matches and both degrees come from a single pairQuery snapshot, so
// each estimate is internally consistent even under concurrent writes
// (weighted midpoint degrees are read after the pair locks are
// released, the timing caveat noted at the top of this file).
func (s *shardSet[T]) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(s, m, u, v)
}

// EstimateJaccard estimates the Jaccard coefficient of (u, v). Safe for
// concurrent use.
func (s *shardSet[T]) EstimateJaccard(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryJaccard, u, v)
	return f
}

// EstimateCommonNeighbors estimates |N(u) ∩ N(v)| — the directed
// two-path count |{w : u → w → v}| on directed stores. Safe for
// concurrent use.
func (s *shardSet[T]) EstimateCommonNeighbors(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCommonNeighbors, u, v)
	return f
}

// EstimateAdamicAdar estimates the Adamic–Adar index with the
// matched-register estimator. Safe for concurrent use.
func (s *shardSet[T]) EstimateAdamicAdar(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryAdamicAdar, u, v)
	return f
}

// EstimateResourceAllocation estimates the resource-allocation index.
// Safe for concurrent use.
func (s *shardSet[T]) EstimateResourceAllocation(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryResourceAllocation, u, v)
	return f
}

// EstimatePreferentialAttachment returns d(u)·d(v) under the store's
// degree estimates — d_out(u)·d_in(v) on directed stores. Safe for
// concurrent use.
func (s *shardSet[T]) EstimatePreferentialAttachment(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryPreferentialAttachment, u, v)
	return f
}

// EstimateCosine returns the estimated cosine (Salton) similarity
// |N(u)∩N(v)| / sqrt(d(u)·d(v)). Safe for concurrent use. Pairs
// involving unknown or isolated vertices score 0.
func (s *shardSet[T]) EstimateCosine(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCosine, u, v)
	return f
}

// Degree returns the degree estimate of u under the configured mode —
// the total in+out degree on directed stores. Safe for concurrent use.
func (s *shardSet[T]) Degree(u uint64) float64 {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].Degree(u)
}

// Knows reports whether u has appeared in the stream. Safe for
// concurrent use.
func (s *shardSet[T]) Knows(u uint64) bool {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].Knows(u)
}

// NumVertices returns the number of distinct vertices seen. Safe for
// concurrent use; reads the per-shard gauges maintained on apply, so a
// call is O(shards) atomic loads and never contends with ingest.
func (s *shardSet[T]) NumVertices() int {
	total := int64(0)
	for i := range s.vertGauge {
		total += s.vertGauge[i].Load()
	}
	return int(total)
}

// NumEdges returns the number of (non-self-loop) edges or arcs
// processed. Safe for concurrent use.
func (s *shardSet[T]) NumEdges() int64 { return s.edges.Load() }

// MemoryBytes returns the total payload memory across shards. Safe for
// concurrent use; like NumVertices it reads the apply-maintained
// per-shard gauges, so metrics scrapes stay lock-free.
func (s *shardSet[T]) MemoryBytes() int {
	total := int64(0)
	for i := range s.memGauge {
		total += s.memGauge[i].Load()
	}
	return int(total)
}
