package core

import (
	"fmt"
	"sync"
)

// Query assembly for the single-writer stores (SketchStore,
// DirectedStore, Windowed, DynamicStore). Each contributes only its
// side: the span hook, which resolves one endpoint to its register span,
// its argmin ids and its degree. The pair snapshot behind Estimate and
// the batch scorer behind ScoreBatch are assembled from sides here, once
// for all four; the shard set assembles its own under its locks
// (shardset.go, querybatch.go). The batch has no locks to amortize, but
// it computes the weighted measures' per-register weights once (≤ K
// degree reads; on Windowed each is an O(gens·K) merge) and fans
// scoring out over workers (queries are read-only and may run
// concurrently).

// sideStore is what a single-writer store contributes to queries.
type sideStore interface {
	// span resolves u for one side of a pair query — the source side
	// when src is set, the candidate side otherwise (the out-sketch and
	// the in-sketch on the directed store; the one sketch elsewhere). It
	// returns u's register values, u's argmin ids where asked for (ids
	// non-nil), and, when deg is set, u's degree on that side; ok is
	// false when u is unknown. The bank stores return their banks' own
	// spans and ignore the buffers; Windowed and DynamicStore build the
	// spans in vals and ids, which hold bufWords() words each, and
	// return prefixes of them.
	span(u uint64, src, deg bool, vals, ids []uint64) (v, i []uint64, d float64, ok bool)
	// bufWords is the length of span's buffers: 0 for the bank stores,
	// whose per-pair queries then never touch spanPool; Config.K for the
	// stores that build their spans.
	bufWords() int
	Degree(u uint64) float64
}

// single assembles a single-writer store's queries from its sides.
type single[S sideStore] struct{ s S }

// spanPool recycles the word buffers of the query paths — the spans the
// span hooks of Windowed and DynamicStore fill, and the weighted
// estimators' matched argmins — so queries and degree reads stay
// allocation-free in steady state.
var spanPool = sync.Pool{New: func() any { return new([]uint64) }}

// pairQuery is the pair snapshot (measure-kernel hook): u's source side
// against v's candidate side.
func (q single[S]) pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, du, dv float64, known bool, ids []uint64) {
	var bufp *[]uint64
	var buf []uint64
	k := q.s.bufWords()
	if k > 0 {
		bufp = spanPool.Get().(*[]uint64)
		buf = grow(*bufp, 3*k)
	}
	var uIDs []uint64
	if collect {
		uIDs = buf[k : 2*k]
	}
	uv, uIDs, du, okU := q.s.span(u, true, true, buf[:k], uIDs)
	vv, _, dv, okV := q.s.span(v, false, true, buf[2*k:], nil)
	known, ids = okU && okV, idBuf // hand idBuf back so callers keep its capacity
	if known {
		matches, effK, ids = matchPrefix(uv, vv, uIDs, collect, idBuf)
	}
	if bufp != nil {
		*bufp = buf
		spanPool.Put(bufp)
	}
	return matches, effK, du, dv, known, ids
}

// midpointDegree weights common-neighbor midpoints by the store's Degree
// (measure-kernel hook): the total in+out degree on the directed store,
// the windowed KMV count on the windowed store.
func (q single[S]) midpointDegree(w uint64) float64 { return q.s.Degree(w) }

// scoreBatch scores every candidate against u under measure m, writing
// scores into out (grown as needed) aligned with candidates. Scores are
// bit-identical to the per-pair estimators. done (nil never cancels) is
// checked once, on entry. Like the estimators, it must not run
// concurrently with a write.
func (q single[S]) scoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error) {
	if !m.valid() {
		return nil, fmt.Errorf("core: unknown query measure %v", m)
	}
	// res, not out: the fan-out closure below captures it, and capturing
	// a reassigned variable would move it to the heap on every call.
	res := grow(out, len(candidates))
	if canceled(done) {
		return res, ErrCanceled
	}
	if len(candidates) == 0 {
		return res, nil
	}
	k := q.s.bufWords()
	sc := queryPool.Get().(*queryScratch)
	sc.srcVals, sc.srcIDs = grow(sc.srcVals, k), grow(sc.srcIDs, k)
	var srcIDs []uint64
	if m.weighted() {
		srcIDs = sc.srcIDs
	}
	src, srcIDs, srcDeg, ok := q.s.span(u, true, true, sc.srcVals, srcIDs)
	if !ok {
		clear(res)
		queryPool.Put(sc)
		return res, nil
	}
	if m.weighted() {
		sc.regWeight = grow(sc.regWeight, len(src)) // the source's span (≤ K on tiered stores)
		fillRegWeights(m, src, srcIDs, sc.regWeight, q)
	}
	if workers := workersFor(len(candidates), minScoreChunk); workers > 1 {
		parallelRange(len(candidates), workers, func(lo, hi int) {
			q.scoreRange(m, src, sc.regWeight, srcDeg, candidates[lo:hi], res[lo:hi])
		})
	} else {
		q.scoreRange(m, src, sc.regWeight, srcDeg, candidates, res)
	}
	queryPool.Put(sc)
	return res, nil
}

// scoreRange scores candidates into out against the pinned source span
// src, its degree srcDeg and (weighted measures) its per-register
// weights. Chunks run on distinct workers, so each takes its own span
// buffer.
func (q single[S]) scoreRange(m QueryMeasure, src []uint64, regWeight []float64, srcDeg float64, candidates []uint64, out []float64) {
	bufp := spanPool.Get().(*[]uint64)
	vals := grow(*bufp, q.s.bufWords())
	for i, c := range candidates {
		cand, _, d, ok := q.s.span(c, false, m != QueryJaccard, vals, nil)
		if !ok {
			out[i] = 0
			continue
		}
		out[i] = scoreCandidate(m, src, cand, regWeight, srcDeg, d)
	}
	*bufp = vals
	spanPool.Put(bufp)
}
