package core

import (
	"sync"
	"sync/atomic"

	"linkpred/internal/hashing"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// Batched ingest pipeline of the shard set (shardset.go).
//
// The per-edge concurrent path pays, for every edge, two write-lock
// acquisitions, two vertex-map lookups, and 2K hash evaluations. The
// batch pipeline restructures that work into stages so that all hashing
// happens outside any lock, repeated vertices are hashed and looked up
// once per batch, and each shard's lock is taken once per batch:
//
//  1. Collect: expand the batch into half-edges (owner absorbs neighbor)
//     while interning every endpoint through a per-batch memo table —
//     graph streams repeat hub vertices constantly, so a batch of B
//     edges typically mentions far fewer than 2B distinct vertices.
//     Each half-edge records only dense indices into the distinct list.
//     A second memo folds duplicate edges into multiplicities: merging
//     the same hash vector twice is a register no-op, so a repeated
//     edge costs one merge plus an arrival-count bump, not 2K register
//     comparisons per repeat. Raw interaction streams (the ingest
//     reality — see E12) repeat pairs heavily, and the per-edge path
//     cannot skip any of that work.
//  2. Hash: evaluate the K-function family on every distinct vertex,
//     writing into a flat arena. Chunks of the distinct list go to a
//     worker pool sized from runtime.GOMAXPROCS; chunk ranges are
//     disjoint, so workers share no mutable state and need no locks.
//  3. Group: two stable counting sorts — distinct vertices by shard,
//     half-edges by owner. Together they let stage 4 walk each shard's
//     vertices with exactly ONE map lookup per distinct vertex per
//     batch (the per-edge path pays two per edge) and apply all of a
//     vertex's updates back-to-back, while its 2×8K bytes of registers
//     are hot in cache — on heavy-tailed streams the register scan is
//     otherwise memory-bound on cold sketches.
//  4. Apply: workers claim shards off an atomic cursor; each shard's
//     whole group is applied under a single write-lock acquisition.
//     A shard is owned by exactly one worker and locks never nest, so
//     the stage is deadlock-free by construction.
//
// Correctness of hash-outside-lock: every shard shares one hash family
// (same Config.Seed), so a hash vector computed in stage 2 is valid for
// whichever shard the half-edge lands on. Register updates are pointwise
// minima — commutative and idempotent — and degree counters are sums, so
// any application order yields register state identical to sequential
// ingest of the same multiset of edges. Tests assert this bit-for-bit.
//
// All buffers live in a pooled batchScratch, so steady-state batch
// ingest performs no per-edge allocations.

// halfEdge is one direction of a batched edge: the owner's sketch
// absorbs the neighbor. Both vertices are referenced by their dense
// index into the scratch's distinct list (hashIdx doubles as the
// neighbor's hash-vector index in the arena). mult counts how many times
// the edge appeared in the batch: register merges are idempotent, so a
// repeated edge is merged once and only its arrival count is scaled —
// raw interaction streams repeat pairs constantly, and the per-edge path
// has no way to skip that work. out distinguishes the two sides of a
// directed arc (unused in undirected mode).
type halfEdge struct {
	ownerIdx int32
	hashIdx  int32
	mult     int32
	out      bool
}

// batchScratch holds every reusable buffer of one in-flight batch. It is
// store-agnostic (slices are resized to the batch and configuration at
// hand), so one global pool serves all stores.
type batchScratch struct {
	halves   []halfEdge
	distinct []uint64 // distinct vertices, first-appearance order
	hashes   []uint64 // hash arena: vector i at [i*K, (i+1)*K)

	// Open-addressing memo table vertex -> distinct index, invalidated in
	// O(1) per batch by bumping epoch.
	memoKeys  []uint64
	memoIdx   []int32
	memoEpoch []uint32
	epoch     uint32

	// Open-addressing pair memo (packed distinct-index pair -> half-edge
	// index) used to fold duplicate edges into halfEdge.mult. Shares the
	// epoch counter with the vertex memo.
	pairKeys  []uint64
	pairIdx   []int32
	pairEpoch []uint32

	// Stage-3 grouping workspaces (see group.go). vertGroup holds
	// distinct-vertex indices grouped by destination shard; ownerGroup
	// holds half-edge indices grouped by owner, so stage 4 can apply each
	// owner's updates as one contiguous run. vertShard caches the shard
	// assignment so the two counting-sort passes hash each vertex once.
	vertShard  []int32
	vertGroup  grouping
	ownerGroup grouping
}

// prefetchSink receives the XOR of the apply loops' lookahead loads so
// the compiler cannot discard them (see the loops for why they exist).
// It is a package-level atomic, not a scratch field: apply runs on
// several goroutines at once (the forEachShard workers), and a plain
// shared field would be a write-write race.
var prefetchSink atomic.Uint64

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// minHashChunk is the smallest distinct-vertex chunk worth handing to a
// hashing worker; below this the goroutine hand-off costs more than the
// hashing it parallelizes.
const minHashChunk = 256

// grow returns buf resized to n, reallocating only when capacity is
// insufficient (ints generalize over the scratch's index slices).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pairFind probes the pair memo for key (a packed pair of distinct
// indices). On first sight it records the current end of sc.halves as
// the pair's half-edge position and returns -1; on a repeat it returns
// the recorded position so the caller can bump the pair's multiplicity.
func (sc *batchScratch) pairFind(key uint64) int32 {
	mask := uint64(len(sc.pairKeys) - 1)
	slot := rng.Mix64(key) & mask
	for {
		if sc.pairEpoch[slot] != sc.epoch {
			sc.pairEpoch[slot] = sc.epoch
			sc.pairKeys[slot] = key
			sc.pairIdx[slot] = int32(len(sc.halves))
			return -1
		}
		if sc.pairKeys[slot] == key {
			return sc.pairIdx[slot]
		}
		slot = (slot + 1) & mask
	}
}

// memoFind returns the distinct-index of v, interning it (appending to
// sc.distinct) on first sight within this batch.
func (sc *batchScratch) memoFind(v uint64) int32 {
	mask := uint64(len(sc.memoKeys) - 1)
	slot := rng.Mix64(v) & mask
	for {
		if sc.memoEpoch[slot] != sc.epoch {
			sc.memoEpoch[slot] = sc.epoch
			sc.memoKeys[slot] = v
			idx := int32(len(sc.distinct))
			sc.memoIdx[slot] = idx
			sc.distinct = append(sc.distinct, v)
			return idx
		}
		if sc.memoKeys[slot] == v {
			return sc.memoIdx[slot]
		}
		slot = (slot + 1) & mask
	}
}

// prepare runs stages 1–3 for a batch: half-edge expansion with vertex
// interning, parallel hashing of the distinct vertices, and the
// owner/shard grouping sorts. directed controls whether the two
// half-edges of each input carry out/in sides. foldDups enables the
// duplicate-edge multiplicity folding; tiered stores must pass false,
// because folding reorders a vertex's arrivals within the batch and a
// promotion threshold crossed mid-batch would then see different
// registers than sequential ingest (uniform stores are unaffected —
// register merges are idempotent there). It returns the number of
// non-self-loop edges in the batch.
func (sc *batchScratch) prepare(edges []stream.Edge, k, nShards int, family *hashing.Family, directed, foldDups bool) int {
	// Stage 1: collect half-edges, interning vertices via the vertex memo
	// and folding duplicate edges into multiplicities via the pair memo.
	sc.halves = sc.halves[:0]
	sc.distinct = sc.distinct[:0]
	vertSize := 1
	for vertSize < 2*len(edges)*2 { // ≤ 2 distinct vertices per edge, ≤ 50% load
		vertSize <<= 1
	}
	pairSize := 1
	for pairSize < 2*len(edges) { // ≤ 1 distinct pair per edge, ≤ 50% load
		pairSize <<= 1
	}
	if len(sc.memoKeys) < vertSize || len(sc.pairKeys) < pairSize {
		// The two tables share one epoch counter, so resetting it requires
		// both tables to hold no entry stamped with a reachable epoch: a
		// freshly allocated table is all-zero, a retained one is cleared.
		if len(sc.memoKeys) < vertSize {
			sc.memoKeys = make([]uint64, vertSize)
			sc.memoIdx = make([]int32, vertSize)
			sc.memoEpoch = make([]uint32, vertSize)
		} else {
			clear(sc.memoEpoch)
		}
		if len(sc.pairKeys) < pairSize {
			sc.pairKeys = make([]uint64, pairSize)
			sc.pairIdx = make([]int32, pairSize)
			sc.pairEpoch = make([]uint32, pairSize)
		} else {
			clear(sc.pairEpoch)
		}
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: stale epochs could false-hit
		clear(sc.memoEpoch)
		clear(sc.pairEpoch)
		sc.epoch = 1
	}
	n := 0
	for _, e := range edges {
		if e.IsSelfLoop() {
			continue
		}
		n++
		iu, iv := sc.memoFind(e.U), sc.memoFind(e.V)
		// Duplicate edges within the batch merge identical hash vectors —
		// a register-level no-op — so they only scale arrival counts.
		// Undirected edges are normalized so (u,v) and (v,u) fold together,
		// exactly as they would update the same two sketches sequentially.
		if foldDups {
			lo, hi := iu, iv
			if !directed && lo > hi {
				lo, hi = hi, lo
			}
			if j := sc.pairFind(uint64(uint32(lo))<<32 | uint64(uint32(hi))); j >= 0 {
				sc.halves[j].mult++
				sc.halves[j+1].mult++
				continue
			}
		}
		sc.halves = append(sc.halves,
			halfEdge{ownerIdx: iu, hashIdx: iv, mult: 1, out: directed},
			halfEdge{ownerIdx: iv, hashIdx: iu, mult: 1})
	}
	if n == 0 {
		return 0
	}
	nd := len(sc.distinct)

	// Stage 2: hash the distinct vertices into the arena, in parallel
	// when the batch is big enough to amortize the goroutine hand-off.
	sc.hashes = grow(sc.hashes, nd*k)
	parallelRange(nd, minHashChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			family.HashAllTo(sc.distinct[i], sc.hashes[i*k:(i+1)*k])
		}
	})

	// Stage 3a: counting-sort distinct vertices by destination shard.
	// The shard assignment is precomputed so each vertex is hashed once
	// across the two counting-sort passes.
	sc.vertShard = grow(sc.vertShard, nd)
	for i, v := range sc.distinct {
		sc.vertShard[i] = int32(shardFor(v, nShards))
	}
	sc.vertGroup.group(nd, nShards, func(i int) int32 { return sc.vertShard[i] })

	// Stage 3b: counting-sort half-edge indices by owner, so stage 4 can
	// apply each owner's updates as one contiguous run.
	sc.ownerGroup.group(len(sc.halves), nd, func(i int) int32 { return sc.halves[i].ownerIdx })
	return n
}

// applyShardBatch applies shard's slice of the prepared batch sc under
// the shard's write lock: stage 4 of the batch pipeline for one shard.
func (s *shardSet[T]) applyShardBatch(sc *batchScratch, shard int) {
	s.mus[shard].Lock()
	s.shards[shard].applyBatch(sc, sc.vertGroup.starts[shard], sc.vertGroup.starts[shard+1])
	s.refreshGauges(shard)
	s.mus[shard].Unlock()
}

// prepare runs stages 1–3 on sc for a batch bound for this set and
// returns the batch's non-self-loop edge count. Tiered stores skip
// duplicate folding (see batchScratch.prepare).
func (s *shardSet[T]) prepare(sc *batchScratch, edges []stream.Edge) int {
	return sc.prepare(edges, s.cfg.K, len(s.shards), s.family.get(), s.kind.directed, !s.cfg.tiered())
}

// IngestBatch folds a batch of edges (arcs on directed stores) into the
// sketches of all endpoints through the staged pipeline above: all
// hashing happens outside any lock, repeated vertices are hashed and
// looked up once per batch, and each shard's write lock is acquired
// once per batch instead of twice per edge. Self-loops are skipped. The
// resulting register state is identical to calling Ingest on each edge
// in any order. Safe for concurrent use, including concurrently with
// Ingest and all estimators. On return the batch is fully applied and
// the gauges refreshed.
//
// For meaningful amortization pass batches of a few hundred edges or
// more; Ingest remains the better call for single edges.
func (s *shardSet[T]) IngestBatch(edges []stream.Edge) {
	s.IngestBatchCancel(edges, nil) // nil done: never cancels
}

// IngestBatchCancel is IngestBatch with pre-commit cancellation: done
// is polled before the batch is prepared and again before the first
// shard lock is taken. A fired done returns ErrCanceled with nothing
// applied; once the apply has started the batch always completes,
// because a half-applied batch would desynchronize the store from the
// WAL's acked prefix.
func (s *shardSet[T]) IngestBatchCancel(edges []stream.Edge, done <-chan struct{}) error {
	if len(edges) == 0 {
		return nil
	}
	if canceled(done) {
		return ErrCanceled
	}
	sc := batchPool.Get().(*batchScratch)
	if n := s.prepare(sc, edges); n > 0 {
		if canceled(done) {
			batchPool.Put(sc)
			return ErrCanceled
		}
		forEachShard(len(s.shards), sc.vertGroup.starts, func(shard int) { s.applyShardBatch(sc, shard) })
		s.edges.Add(int64(n))
	}
	batchPool.Put(sc)
	return nil
}

// applyBatch is the undirected stage-4 apply (shard-set hook).
func (st *SketchStore) applyBatch(sc *batchScratch, lo, hi int32) {
	k := st.cfg.K
	// Software-pipelined vertex lookup: resolve vertex vi+1's state
	// (map-bucket chain plus first touches of its register lines)
	// while vi's register merges execute, overlapping the L3 latency
	// of the next cold sketch with the current one's compute. Only
	// the batch path can do this — it knows the shard's whole vertex
	// list up front; the per-edge path has no lookahead to work with.
	var next *vertexState
	var sink uint64
	if hi > lo {
		next = st.state(sc.distinct[sc.vertGroup.order[lo]])
	}
	for vi := lo; vi < hi; vi++ {
		o := sc.vertGroup.order[vi]
		vs := next
		if vi+1 < hi {
			// state may grow the bank; bank.update below re-derives
			// its spans per call, so no slice here can go stale.
			next = st.state(sc.distinct[sc.vertGroup.order[vi+1]])
			nv := st.bank.regs(next.slot)
			for j := 0; j < len(nv); j += 8 { // one load per cache line
				sink ^= nv[j]
			}
		}
		group := sc.ownerGroup.order[sc.ownerGroup.starts[o]:sc.ownerGroup.starts[o+1]]
		if st.tiers != nil {
			// Tiered stores interleave count/promote/fold per half-edge in
			// stream order (the stable owner sort preserves it); dup folding
			// is disabled for them in prepare, so mult is always 1 here.
			for _, hj := range group {
				h := &sc.halves[hj]
				vs.arrivals++
				st.promoteIfDue(vs)
				st.bank.update(vs.slot, sc.distinct[h.hashIdx], sc.hashes[int(h.hashIdx)*k:(int(h.hashIdx)+1)*k])
			}
			continue
		}
		var arr int64
		for _, hj := range group {
			h := &sc.halves[hj]
			st.bank.update(vs.slot, sc.distinct[h.hashIdx], sc.hashes[int(h.hashIdx)*k:(int(h.hashIdx)+1)*k])
			arr += int64(h.mult)
		}
		vs.arrivals += arr
	}
	prefetchSink.Store(sink) // keep the lookahead loads observable
}

// applyBatch is the directed stage-4 apply (shard-set hook): each
// half-arc folds into its owner's out- or in-sketch.
func (st *DirectedStore) applyBatch(sc *batchScratch, lo, hi int32) {
	k := st.cfg.K
	// Same software-pipelined vertex lookahead as the undirected
	// apply loop (see SketchStore.applyBatch).
	var next *dirVertexState
	var sink uint64
	if hi > lo {
		next = st.state(sc.distinct[sc.vertGroup.order[lo]])
	}
	for vi := lo; vi < hi; vi++ {
		o := sc.vertGroup.order[vi]
		vs := next
		if vi+1 < hi {
			// Same staleness discipline as the undirected loop: the
			// spans are derived after the state call that may grow
			// the banks, and bank.update re-derives per call. The two
			// sides' spans can differ in length on tiered stores, so
			// each is walked on its own.
			next = st.state(sc.distinct[sc.vertGroup.order[vi+1]])
			no, ni := st.out.regs(next.outSlot), st.in.regs(next.inSlot)
			for j := 0; j < len(no); j += 8 { // one load per cache line
				sink ^= no[j]
			}
			for j := 0; j < len(ni); j += 8 {
				sink ^= ni[j]
			}
		}
		group := sc.ownerGroup.order[sc.ownerGroup.starts[o]:sc.ownerGroup.starts[o+1]]
		if st.tiers != nil {
			// Count/promote/fold per half-arc in stream order, as in the
			// undirected tiered branch; mult is always 1 (no dup folding).
			for _, hj := range group {
				h := &sc.halves[hj]
				nbrHashes := sc.hashes[int(h.hashIdx)*k : (int(h.hashIdx)+1)*k]
				if h.out {
					vs.outArr++
					st.promoteOutIfDue(vs)
					st.out.update(vs.outSlot, sc.distinct[h.hashIdx], nbrHashes)
				} else {
					vs.inArr++
					st.promoteInIfDue(vs)
					st.in.update(vs.inSlot, sc.distinct[h.hashIdx], nbrHashes)
				}
			}
			continue
		}
		for _, hj := range group {
			h := &sc.halves[hj]
			nbrHashes := sc.hashes[int(h.hashIdx)*k : (int(h.hashIdx)+1)*k]
			if h.out {
				st.out.update(vs.outSlot, sc.distinct[h.hashIdx], nbrHashes)
				vs.outArr += int64(h.mult)
			} else {
				st.in.update(vs.inSlot, sc.distinct[h.hashIdx], nbrHashes)
				vs.inArr += int64(h.mult)
			}
		}
	}
	prefetchSink.Store(sink) // keep the lookahead loads observable
}
