package core

import (
	"fmt"
	"sync"

	"linkpred/internal/rng"
)

// Batched query engine — the read-side counterpart of the batched ingest
// pipeline (batch.go). The per-pair query path pays, for every candidate,
// two shard RLock acquisitions, a map lookup for the *source* vertex it
// already resolved for the previous candidate, and (for the weighted
// measures) one degree lookup per matched register. ScoreBatch
// restructures a one-source/many-candidate query so that each piece of
// shared work happens once per batch:
//
//  1. Pin: the source vertex's registers, argmin ids and degree are
//     copied under a single RLock into a pooled scratch. Every candidate
//     scores against this one coherent snapshot instead of re-reading
//     the source per pair.
//  2. Weigh: for Adamic–Adar and resource allocation, the matched-
//     register weights depend only on the *source's* argmin ids — at
//     most K distinct vertices per batch — so the per-register weights
//     are precomputed with ≤ K degree lookups. The sequential path
//     re-resolves those same degrees for every candidate pair.
//  3. Group: candidates are interned (duplicates collapse to one score)
//     and counting-sorted by home shard, reusing the grouping machinery
//     of the ingest pipeline (group.go).
//  4. Score in place: GOMAXPROCS-bounded workers take ONE RLock per
//     shard per batch — O(shards) lock acquisitions per query instead
//     of O(candidates) — and score that shard's candidates directly
//     from its register bank against the pinned source. The bank's
//     struct-of-arrays layout (sketch.go) is what makes this cheap:
//     a candidate's k registers are one contiguous span, so the match
//     kernel streams the bank instead of chasing per-vertex pointers,
//     and nothing is copied per candidate (the earlier design copied
//     every candidate's registers out of the shard before scoring —
//     at k=64 that memmove traffic was ~30% of the batch's wall time).
//  5. Fan out: scores propagate from distinct-candidate slots back to
//     the caller's candidate order.
//
// Equivalence: on a quiescent store every score is bit-identical to the
// corresponding sequential estimator — the match loops, degree formulas,
// and floating-point summation order (register order for the weighted
// measures) replicate the sequential code paths exactly; tests assert
// this per measure. Under concurrent writes the batch path is *more*
// consistent than the sequential one: all candidates in a shard are read
// atomically with respect to that shard's writers, and the source is one
// fixed snapshot, whereas sequential TopK re-reads everything per pair.

// minScoreChunk is the smallest distinct-candidate chunk worth handing
// to a scoring worker; each candidate costs O(K), so below this the
// goroutine hand-off dominates.
const minScoreChunk = 256

// queryScratch holds every reusable buffer of one in-flight batched
// query. Store-agnostic, like batchScratch, so one pool serves the shard
// set and the single-writer assembler (querybatch_single.go), which
// uses only the source buffers and the weights.
type queryScratch struct {
	// Pinned source snapshot (stage 1) and per-register weights (stage
	// 2). The shard set copies the source's bank spans into srcVals and
	// srcIDs; the single-writer stores that build their spans (Windowed,
	// DynamicStore) fill them there.
	srcVals   []uint64
	srcIDs    []uint64
	regWeight []float64

	// Candidate interning (stage 3): distinct candidates in first-
	// appearance order, candIdx maps caller positions to distinct
	// indices, and the epoch memo makes per-batch invalidation O(1).
	// hashes caches each distinct candidate's Mix64 so grouping by home
	// shard does not rehash what interning already hashed.
	distinct  []uint64
	hashes    []uint64
	candIdx   []int32
	memoKeys  []uint64
	memoIdx   []int32
	memoEpoch []uint32
	epoch     uint32

	// Shard grouping (stage 3) and per-distinct resolution + scores
	// (stage 4). slots[c] is candidate c's bank slot (-1 when the vertex
	// is unknown), degs[c] its degree, read beside the slot from the
	// bank's cache. The resolve pass's cache-warming loads are kept
	// observable through the package-level prefetchSink (batch.go) —
	// shard workers share this scratch, so a plain field here would be a
	// write-write race.
	candShard []int32
	group     grouping
	slots     []int32
	degs      []float64
	scores    []float64
}

var queryPool = sync.Pool{New: func() any { return new(queryScratch) }}

// internCandidates resets the memo for a new batch and interns every
// candidate, filling sc.distinct and sc.candIdx. Returns the number of
// distinct candidates.
func (sc *queryScratch) internCandidates(candidates []uint64) int {
	sc.distinct = sc.distinct[:0]
	sc.hashes = sc.hashes[:0]
	size := 1
	for size < 2*len(candidates) { // ≤ 50% load
		size <<= 1
	}
	if len(sc.memoKeys) < size {
		sc.memoKeys = make([]uint64, size)
		sc.memoIdx = make([]int32, size)
		sc.memoEpoch = make([]uint32, size)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: stale epochs could false-hit
		clear(sc.memoEpoch)
		sc.epoch = 1
	}
	sc.candIdx = grow(sc.candIdx, len(candidates))
	for i, v := range candidates {
		sc.candIdx[i] = sc.intern(v)
	}
	return len(sc.distinct)
}

func (sc *queryScratch) intern(v uint64) int32 {
	mask := uint64(len(sc.memoKeys) - 1)
	h := rng.Mix64(v)
	slot := h & mask
	for {
		if sc.memoEpoch[slot] != sc.epoch {
			sc.memoEpoch[slot] = sc.epoch
			sc.memoKeys[slot] = v
			idx := int32(len(sc.distinct))
			sc.memoIdx[slot] = idx
			sc.distinct = append(sc.distinct, v)
			sc.hashes = append(sc.hashes, h)
			return idx
		}
		if sc.memoKeys[slot] == v {
			return sc.memoIdx[slot]
		}
		slot = (slot + 1) & mask
	}
}

// groupByShard counting-sorts the distinct candidates by home shard
// (same hash as shardSet.shardOf, read back from the intern pass's
// cache).
func (sc *queryScratch) groupByShard(nShards int) {
	nd := len(sc.distinct)
	sc.candShard = grow(sc.candShard, nd)
	for i, h := range sc.hashes {
		sc.candShard[i] = int32(h % uint64(nShards))
	}
	sc.group.group(nd, nShards, func(i int) int32 { return sc.candShard[i] })
}

// ScoreBatch scores every candidate against u under measure m — every
// candidate arc u → c on directed stores — writing the scores into out
// (grown as needed) aligned with candidates, and returns it. Duplicate
// candidate ids receive identical scores (each distinct candidate is
// scored once); a candidate equal to u is scored like any other pair —
// ranking layers are responsible for skipping the source. Scores are
// bit-identical to calling the corresponding sequential estimator per
// pair on a quiescent store.
//
// Safe for concurrent use, including concurrently with writers: the
// source is read under one RLock, and GOMAXPROCS-bounded workers score
// each shard's candidates directly from its register bank under one
// RLock per shard per batch. Per-query lock cost is O(shards + K), not
// O(candidates).
//
// done (nil never cancels) is polled before the batch starts and before
// each shard is claimed, so an expired request stops consuming query
// workers at shard granularity. A fired done returns ErrCanceled; out's
// contents are then unspecified.
func (s *shardSet[T]) ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error) {
	if !m.valid() {
		return nil, fmt.Errorf("core: unknown query measure %v", m)
	}
	out = grow(out, len(candidates))
	if len(candidates) == 0 {
		return out, nil
	}
	if canceled(done) {
		return out, ErrCanceled
	}
	sc := queryPool.Get().(*queryScratch)

	// Stage 1: pin the source's side (its out-sketch on directed stores)
	// under a single RLock. The pinned span is the source's own register
	// count — Config.K, or its tier size on tiered stores.
	a := s.shardOf(u)
	s.mus[a].RLock()
	srcVals, srcIDs, srcDeg, srcKnown := bankSpan(s.shards[a].side(u, true, true))
	sc.srcVals = append(sc.srcVals[:0], srcVals...)
	sc.srcIDs = append(sc.srcIDs[:0], srcIDs...)
	s.mus[a].RUnlock()
	if !srcKnown {
		// Every measure scores 0 against an unknown source (for
		// preferential attachment, d(u) = 0 annihilates the product).
		clear(out)
		queryPool.Put(sc)
		return out, nil
	}

	// Stage 2: precompute the per-register weights for the weighted
	// measures. Matched argmin ids always come from the pinned source's
	// ids array — ≤ K distinct vertices — so this replaces the
	// sequential path's per-pair degree lookups with ≤ K per batch.
	if m.weighted() {
		sc.regWeight = grow(sc.regWeight, len(sc.srcVals))
		fillRegWeights(m, sc.srcVals, sc.srcIDs, sc.regWeight, s)
	}

	// Stage 3: intern candidates and group them by home shard.
	nd := sc.internCandidates(candidates)
	nShards := len(s.shards)
	sc.groupByShard(nShards)

	// Stage 4: score each shard's candidates in place (scoreShard). A
	// batch too small to split runs on the calling goroutine.
	sc.slots = grow(sc.slots, nd)
	sc.degs = grow(sc.degs, nd)
	sc.scores = grow(sc.scores, nd)
	complete := true
	if workers := workersFor(nd, minScoreChunk); workers > 1 {
		complete = forEachShardDone(nShards, workers, done, func(shard int) { s.scoreShard(sc, m, srcDeg, shard) })
	} else {
		for shard := range nShards {
			if canceled(done) {
				complete = false
				break
			}
			s.scoreShard(sc, m, srcDeg, shard)
		}
	}
	if !complete {
		queryPool.Put(sc) // workers joined: scratch is safe to recycle
		return out, ErrCanceled
	}

	// Stage 5: fan scores back out to the caller's candidate order.
	for i := range out {
		out[i] = sc.scores[sc.candIdx[i]]
	}
	queryPool.Put(sc)
	return out, nil
}

// scoreShard is stage 4 for one shard: it scores the shard's distinct
// candidates directly from the shard's register bank (its in-side bank
// on directed stores) against the pinned source, under one RLock. Each
// candidate belongs to exactly one shard, so workers write disjoint
// score slots. scoreCandidate is the same kernel the sequential
// estimators end in, which is what keeps the two paths bit-identical.
//
// Two passes, both under the same RLock (so slots stay valid — the bank
// cannot grow or move while it is held): the first resolves every
// candidate's slot and walks one word per cache line of its register
// span, which overlaps the span fetches across candidates (the match
// kernel's loads are consumed serially, so letting it demand-miss per
// candidate wastes the memory parallelism the independent lookups
// have); the second scores against now-warm lines. Degrees come from
// the bank's per-slot cache in the first pass, so the degree term costs
// one load per candidate; preferential attachment is the degree product
// alone and touches no registers at all.
func (s *shardSet[T]) scoreShard(sc *queryScratch, m QueryMeasure, srcDeg float64, shard int) {
	lo, hi := sc.group.starts[shard], sc.group.starts[shard+1]
	if lo == hi {
		return
	}
	st := s.shards[shard]
	s.mus[shard].RLock()
	var bank *regBank // the candidate side's bank, one per shard
	var warm uint64
	for gi := lo; gi < hi; gi++ {
		c := sc.group.order[gi]
		b, slot, d, ok := st.side(sc.distinct[c], false, m != QueryJaccard)
		if !ok {
			sc.slots[c] = -1
			continue
		}
		bank = b
		sc.slots[c] = slot
		sc.degs[c] = d
		if m != QueryPreferentialAttachment {
			regs := b.regs(slot)
			for j := 0; j < len(regs); j += 8 {
				warm += regs[j]
			}
		}
	}
	prefetchSink.Store(warm)
	for gi := lo; gi < hi; gi++ {
		c := sc.group.order[gi]
		slot := sc.slots[c]
		if slot < 0 {
			sc.scores[c] = 0
			continue
		}
		sc.scores[c] = scoreCandidate(m, sc.srcVals, bank.regs(slot), sc.regWeight, srcDeg, sc.degs[c])
	}
	s.mus[shard].RUnlock()
}
