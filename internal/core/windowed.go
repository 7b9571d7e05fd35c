package core

import (
	"fmt"

	"linkpred/internal/stream"
)

// Windowed is the sliding-window extension of the sketch store: queries
// reflect only the most recent window of the stream, so predictions
// track the *current* graph rather than its entire history. This is the
// natural "temporal decay" extension of the paper's scheme (streams
// evolve; year-old edges should not dominate today's recommendations).
//
// Construction: the window of span W is divided into G generations, each
// an independent SketchStore over the same hash family. Edges land in
// the generation covering their timestamp; when time advances past the
// youngest generation's end, the oldest generation is dropped and a
// fresh one started — a tumbling rotation. A query merges the live
// generations' registers per vertex: the per-register minimum across
// generations is exactly the MinHash sketch of the union of the
// generations' neighbor sets, so every estimator carries over unchanged.
// Queries therefore cover between W·(G−1)/G and W of recent stream time
// (the granularity error shrinks as G grows), and cost O(G·K).
//
// Degrees are always estimated with the KMV distinct counter over the
// merged registers — a neighbor seen in several generations must count
// once — so Config.Degrees is ignored.
//
// Timestamps must be non-decreasing (the stream model of DESIGN.md §1).
// A late edge still inside the window lands in the generation covering
// its timestamp, so it expires with its cohort; an edge older than the
// whole window is folded into the oldest live generation rather than
// dropped (slightly stale is better than silently missing).
//
// Rotation cost is O(gens) worst case per edge regardless of the time
// gap: a gap of s generation spans crosses s boundaries, but only
// min(s, gens) generations exist to reset, so the cursor and window end
// advance arithmetically and at most gens stores are re-created. This
// preserves the paper's constant-time-per-edge guarantee even when a
// stream resumes after a long idle period (or jumps from T=0 to
// epoch-seconds timestamps).
type Windowed struct {
	cfg     Config
	genSpan int64 // per-generation span = window / gens
	gens    []*SketchStore

	cur      int   // index of the youngest generation
	curEnd   int64 // exclusive end timestamp of the youngest generation
	started  bool
	rotation int64 // count of rotations, for introspection/tests
}

// NewWindowed returns a windowed store covering the last `window` units
// of stream time with `gens` generations. It returns an error if the
// config is invalid, window < 1, gens < 2, or gens does not divide the
// window usefully (window/gens must be >= 1).
func NewWindowed(cfg Config, window int64, gens int) (*Windowed, error) {
	if cfg.EnableBiased {
		return nil, fmt.Errorf("core: windowed mode does not support the vertex-biased sketches")
	}
	if cfg.TrackTriangles {
		return nil, fmt.Errorf("core: windowed mode does not support triangle tracking (a triangle's accumulated count cannot expire with its edges)")
	}
	if window < 1 {
		return nil, fmt.Errorf("core: NewWindowed needs window >= 1, got %d", window)
	}
	if gens < 2 {
		return nil, fmt.Errorf("core: NewWindowed needs gens >= 2, got %d", gens)
	}
	span := window / int64(gens)
	if span < 1 {
		return nil, fmt.Errorf("core: window %d too small for %d generations", window, gens)
	}
	w := &Windowed{cfg: cfg, genSpan: span, gens: make([]*SketchStore, gens)}
	for i := range w.gens {
		store, err := NewSketchStore(cfg)
		if err != nil {
			return nil, err
		}
		w.gens[i] = store
	}
	return w, nil
}

// Config returns the per-generation configuration.
func (w *Windowed) Config() Config { return w.cfg }

// Window returns the total window span covered (span × generations).
func (w *Windowed) Window() int64 { return w.genSpan * int64(len(w.gens)) }

// Rotations returns how many generation rotations have occurred.
func (w *Windowed) Rotations() int64 { return w.rotation }

// ProcessEdge folds one edge into the generation covering its timestamp,
// rotating generations forward as stream time advances. The rotation is
// O(gens) worst case for any time gap (see the type comment), keeping
// per-edge cost constant in the stream length and the gap size.
func (w *Windowed) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	if !w.started {
		w.started = true
		w.curEnd = e.T + w.genSpan
	}
	if e.T >= w.curEnd {
		w.advanceTo(e.T)
	}
	w.gens[w.genFor(e.T)].ProcessEdge(e)
}

// advanceTo rotates the window forward until t < curEnd. The number of
// span boundaries crossed may be huge after an idle period, but only
// min(crossed, gens) generations still exist to reset: the cursor and
// window end advance arithmetically, and each live slot is re-created at
// most once. Rotations() counts actual generation resets, so it grows by
// at most len(gens) per edge.
func (w *Windowed) advanceTo(t int64) {
	g := int64(len(w.gens))
	steps := (t-w.curEnd)/w.genSpan + 1
	resets := steps
	if resets > g {
		resets = g
	}
	w.cur = int(((int64(w.cur)+steps)%g + g) % g)
	for i := int64(0); i < resets; i++ {
		idx := ((int64(w.cur)-i)%g + g) % g
		fresh, err := NewSketchStore(w.cfg)
		if err != nil {
			// Config was validated at construction; this cannot happen.
			panic("core: windowed rotation: " + err.Error())
		}
		w.gens[idx] = fresh
	}
	w.curEnd += steps * w.genSpan
	w.rotation += resets
}

// genFor returns the index of the generation covering timestamp t. An
// in-order edge (the common case) lands in the youngest generation; a
// late edge still inside the window lands in the generation covering its
// timestamp so it expires with its cohort; an edge older than the whole
// window is folded into the oldest live generation rather than dropped.
// Callers must have advanced the window so that t < curEnd.
func (w *Windowed) genFor(t int64) int {
	g := int64(len(w.gens))
	back := (w.curEnd - 1 - t) / w.genSpan
	if back >= g {
		back = g - 1 // pre-window → oldest live generation
	}
	return int(((int64(w.cur)-back)%g + g) % g)
}

// Process consumes an entire stream.
func (w *Windowed) Process(src stream.Source) (int64, error) {
	var n int64
	err := stream.ForEach(src, func(e stream.Edge) error {
		w.ProcessEdge(e)
		n++
		return nil
	})
	return n, err
}

// mergedInto merges u's registers across live generations: vals (K
// words) receives the per-register minimum and, when ids is non-nil, ids
// its argmin id. It returns the summed arrival count and eff, the valid
// span: on tiered stores the union is valid only over the prefix every
// contributing generation covers — a register beyond some generation's
// span is missing that generation's minima — so eff is the smallest
// contributing span (min-k prefix property; K on uniform stores). ok is
// false if u appears in no generation.
func (w *Windowed) mergedInto(u uint64, vals, ids []uint64) (eff int, arrivals int64, ok bool) {
	for i := range vals {
		vals[i] = emptyRegister
	}
	eff = len(vals)
	for _, g := range w.gens {
		st := g.vertices[u]
		if st == nil {
			continue
		}
		ok = true
		arrivals += st.arrivals
		gv, gi := g.registers(st)
		eff = min(eff, len(gv))
		for i, v := range gv {
			if v < vals[i] {
				vals[i] = v
				if ids != nil {
					ids[i] = gi[i]
				}
			}
		}
	}
	return eff, arrivals, ok
}

// span is the side hook of single-writer queries (querybatch_single.go):
// u's union sketch over the window, merged into the given buffers, with
// its KMV distinct degree.
func (w *Windowed) span(u uint64, _, deg bool, vals, ids []uint64) ([]uint64, []uint64, float64, bool) {
	eff, arrivals, ok := w.mergedInto(u, vals, ids)
	if !ok {
		return nil, nil, 0, false
	}
	if ids != nil {
		ids = ids[:eff]
	}
	var d float64
	if deg {
		d = kmvDistinct(vals[:eff], arrivals)
	}
	return vals[:eff], ids, d, true
}

func (w *Windowed) bufWords() int { return w.cfg.K }

// Reserve pre-sizes the live generations for n expected vertices
// (sizing hint; generations created by later rotations start fresh).
func (w *Windowed) Reserve(n int) {
	for _, g := range w.gens {
		g.Reserve(n)
	}
}

// TierOccupancy returns live slots per tier summed across generations,
// or nil on a uniform store.
func (w *Windowed) TierOccupancy() []int {
	var total []int
	for _, g := range w.gens {
		counts := g.TierOccupancy()
		if counts == nil {
			return nil
		}
		if total == nil {
			total = make([]int, len(counts))
		}
		for i, n := range counts {
			total[i] += n
		}
	}
	return total
}

// Degree returns the KMV distinct-degree estimate of u over the window.
func (w *Windowed) Degree(u uint64) float64 {
	bufp := spanPool.Get().(*[]uint64)
	vals := grow(*bufp, w.cfg.K)
	_, _, d, _ := w.span(u, false, true, vals, nil)
	*bufp = vals
	spanPool.Put(bufp)
	return d
}

// Knows reports whether u appears anywhere in the window.
func (w *Windowed) Knows(u uint64) bool {
	for _, g := range w.gens {
		if g.Knows(u) {
			return true
		}
	}
	return false
}

// Estimate returns the estimate of any query measure for (u, v) over
// the window.
func (w *Windowed) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(single[*Windowed]{w}, m, u, v)
}

// ScoreBatch scores every candidate against u over the current window,
// writing scores into out aligned with candidates; scores are
// bit-identical to Estimate, but the source and each midpoint are merged
// once per batch instead of once per pair. done (nil never cancels) is
// checked once, on entry. Must not run concurrently with ProcessEdge.
func (w *Windowed) ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error) {
	return single[*Windowed]{w}.scoreBatch(m, u, candidates, out, done)
}

// EstimateJaccard estimates the Jaccard coefficient of (u, v) over the
// window.
func (w *Windowed) EstimateJaccard(u, v uint64) float64 {
	f, _ := w.Estimate(QueryJaccard, u, v)
	return f
}

// EstimateCommonNeighbors estimates |N(u) ∩ N(v)| over the window.
func (w *Windowed) EstimateCommonNeighbors(u, v uint64) float64 {
	f, _ := w.Estimate(QueryCommonNeighbors, u, v)
	return f
}

// EstimateAdamicAdar estimates the Adamic–Adar index over the window
// with the matched-register estimator, weighting by windowed degrees.
func (w *Windowed) EstimateAdamicAdar(u, v uint64) float64 {
	f, _ := w.Estimate(QueryAdamicAdar, u, v)
	return f
}

// EstimateResourceAllocation estimates the resource-allocation index
// over the window with the matched-register estimator, weighting
// midpoints by 1/d(w) under the windowed (KMV distinct) degrees, clamped
// at 2 as in the plain store.
func (w *Windowed) EstimateResourceAllocation(u, v uint64) float64 {
	f, _ := w.Estimate(QueryResourceAllocation, u, v)
	return f
}

// EstimatePreferentialAttachment returns d(u)·d(v) under the windowed
// degree estimates (always KMV distinct counts over the merged
// generations).
func (w *Windowed) EstimatePreferentialAttachment(u, v uint64) float64 {
	f, _ := w.Estimate(QueryPreferentialAttachment, u, v)
	return f
}

// EstimateCosine returns the estimated cosine (Salton) similarity
// |N(u)∩N(v)| / sqrt(d(u)·d(v)) over the window. Pairs involving
// vertices absent from every live generation score 0.
func (w *Windowed) EstimateCosine(u, v uint64) float64 {
	f, _ := w.Estimate(QueryCosine, u, v)
	return f
}

// MemoryBytes returns the total payload memory across live generations.
func (w *Windowed) MemoryBytes() int {
	total := 0
	for _, g := range w.gens {
		total += g.MemoryBytes()
	}
	return total
}

// NumEdges returns the number of edges currently held across live
// generations (edges rotated out are gone, which is the point).
func (w *Windowed) NumEdges() int64 {
	var total int64
	for _, g := range w.gens {
		total += g.NumEdges()
	}
	return total
}
