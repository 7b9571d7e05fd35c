package core

import (
	"fmt"

	"linkpred/internal/stream"
)

// DirectedStore is the directed-stream variant of the sketch store:
// each vertex keeps *two* MinHash sketches — one of its out-neighborhood
// N_out(u) and one of its in-neighborhood N_in(u) — plus the two degree
// counters. An arc u → v updates u's out-sketch with v and v's in-sketch
// with u: still O(K) per arc and O(K) words per vertex (2× the
// undirected store).
//
// Queries score a candidate arc u → v against the directed common
// neighborhood {w : u → w → v} = N_out(u) ∩ N_in(v): register matches
// between u's out-sketch and v's in-sketch estimate the Jaccard of those
// two sets (the MinHash argument is direction-agnostic — both sketches
// hash neighbor *identities* with the same family), and the
// common-neighbor and Adamic–Adar estimators follow exactly as in the
// undirected case with d(u) ↦ d_out(u), d(v) ↦ d_in(v), and midpoint
// weight 1/ln(total degree).
type DirectedStore struct {
	cfg      Config
	family   *lazyFamily
	vertices map[uint64]*dirVertexState
	// out and in are the two register banks (see regBank in sketch.go);
	// a vertex holds one slot per side. On uniform stores the two slots
	// are allocated in lockstep and stay equal; on tiered stores the
	// sides promote independently (a hub's out-neighborhood can be hot
	// while its in-side stays cold), so each side carries its own slot.
	out, in regBank
	tiers   []Tier
	arcs    int64
	hashBuf []uint64
}

type dirVertexState struct {
	outSlot, inSlot int32
	outArr, inArr   int64
}

// NewDirectedStore returns an empty directed store. It returns an error
// if cfg.K is outside [1, 2^20] or cfg.EnableBiased is set (the biased
// sketches are an undirected-mode ablation).
func NewDirectedStore(cfg Config) (*DirectedStore, error) {
	if err := cfg.validateK(); err != nil {
		return nil, err
	}
	if cfg.EnableBiased {
		return nil, fmt.Errorf("core: directed mode does not support the vertex-biased sketches")
	}
	if cfg.TrackTriangles {
		return nil, fmt.Errorf("core: directed mode does not support triangle tracking (directed triangle census needs three orientation classes; out of scope)")
	}
	if err := cfg.validateTiers(); err != nil {
		return nil, err
	}
	s := &DirectedStore{
		cfg:      cfg,
		family:   &lazyFamily{cfg: cfg},
		vertices: make(map[uint64]*dirVertexState),
		tiers:    cfg.activeTiers(),
	}
	s.out.init(cfg, true)
	s.in.init(cfg, true)
	return s, nil
}

// Config returns the store's configuration.
func (s *DirectedStore) Config() Config { return s.cfg }

// ProcessArc folds the directed arc u → v into the sketches. Self-loops
// are ignored.
func (s *DirectedStore) ProcessArc(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	su := s.state(e.U)
	sv := s.state(e.V)
	if s.tiers != nil {
		// Canonical tiered half-arc order (count → promote → fold), as in
		// SketchStore.ProcessEdge; the two sides promote independently.
		s.hashBuf = s.family.get().HashAll(e.V, s.hashBuf)
		su.outArr++
		s.promoteOutIfDue(su)
		s.out.update(su.outSlot, e.V, s.hashBuf)
		s.hashBuf = s.family.get().HashAll(e.U, s.hashBuf)
		sv.inArr++
		s.promoteInIfDue(sv)
		s.in.update(sv.inSlot, e.U, s.hashBuf)
		s.arcs++
		return
	}
	s.hashBuf = s.family.get().HashAll(e.V, s.hashBuf)
	s.out.update(su.outSlot, e.V, s.hashBuf)
	s.hashBuf = s.family.get().HashAll(e.U, s.hashBuf)
	s.in.update(sv.inSlot, e.U, s.hashBuf)
	su.outArr++
	sv.inArr++
	s.arcs++
}

// promoteOutIfDue moves st's out-side sketch up through every tier whose
// arrival threshold st.outArr has reached (see SketchStore.promoteIfDue
// for the determinism argument).
func (s *DirectedStore) promoteOutIfDue(st *dirVertexState) {
	t := int(st.outSlot >> tierShift)
	for t+1 < len(s.tiers) && st.outArr >= s.tiers[t+1].PromoteAt {
		t++
		st.outSlot = s.out.promote(st.outSlot, t)
	}
}

// promoteInIfDue is promoteOutIfDue for the in-side sketch.
func (s *DirectedStore) promoteInIfDue(st *dirVertexState) {
	t := int(st.inSlot >> tierShift)
	for t+1 < len(s.tiers) && st.inArr >= s.tiers[t+1].PromoteAt {
		t++
		st.inSlot = s.in.promote(st.inSlot, t)
	}
}

// Process consumes an entire stream of arcs.
func (s *DirectedStore) Process(src stream.Source) (int64, error) {
	var n int64
	err := stream.ForEach(src, func(e stream.Edge) error {
		s.ProcessArc(e)
		n++
		return nil
	})
	return n, err
}

func (s *DirectedStore) state(u uint64) *dirVertexState {
	st := s.vertices[u]
	if st == nil {
		st = &dirVertexState{outSlot: s.out.alloc(), inSlot: s.in.alloc()}
		s.vertices[u] = st
	}
	return st
}

// Reserve pre-sizes the vertex map and both banks' tier-0 arenas for n
// expected vertices (sizing hint; see SketchStore.Reserve).
func (s *DirectedStore) Reserve(n int) {
	if n <= 0 {
		return
	}
	if len(s.vertices) == 0 {
		s.vertices = make(map[uint64]*dirVertexState, n)
	}
	s.out.reserve([MaxTiers]int{n})
	s.in.reserve([MaxTiers]int{n})
}

// TierOccupancy returns the live slot count per tier, summing the out-
// and in-side banks, or nil on a uniform store.
func (s *DirectedStore) TierOccupancy() []int {
	if s.tiers == nil {
		return nil
	}
	out := s.out.tierCounts()
	for i, n := range s.in.tierCounts() {
		out[i] += n
	}
	return out
}

// Knows reports whether u has appeared in the stream (either endpoint).
func (s *DirectedStore) Knows(u uint64) bool { return s.vertices[u] != nil }

// NumVertices returns the number of vertices seen.
func (s *DirectedStore) NumVertices() int { return len(s.vertices) }

// NumArcs returns the number of (non-self-loop) arcs processed, counting
// duplicates.
func (s *DirectedStore) NumArcs() int64 { return s.arcs }

// OutDegree returns the out-degree estimate of u under the configured
// DegreeMode.
func (s *DirectedStore) OutDegree(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return sideDegree(&s.out, st.outSlot, st.outArr)
}

// InDegree returns the in-degree estimate of u.
func (s *DirectedStore) InDegree(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return sideDegree(&s.in, st.inSlot, st.inArr)
}

// sideDegree is the degree of one side (out or in) of a vertex: 0 for a
// side that never saw an arc, else the bank's O(1) degree read.
func sideDegree(b *regBank, slot int32, arrivals int64) float64 {
	if arrivals == 0 {
		return 0
	}
	return b.degree(slot, arrivals)
}

// pairQuery is the directed side of the measure kernel (see
// measure_kernel.go): register matches between u's out-sketch and v's
// in-sketch, the two side degrees d_out(u) and d_in(v), and optionally
// the matched argmin ids (the sampled two-path midpoints).
func (s *DirectedStore) pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, du, dv float64, known bool, ids []uint64) {
	su, sv := s.vertices[u], s.vertices[v]
	if su == nil || sv == nil {
		return 0, s.cfg.K, 0, 0, false, idBuf
	}
	// Degrees use each side's full span; the match comparison runs over
	// the shared prefix.
	du = sideDegree(&s.out, su.outSlot, su.outArr)
	dv = sideDegree(&s.in, sv.inSlot, sv.inArr)
	matches, effK, ids = matchPrefix(s.out.regs(su.outSlot), s.in.regs(sv.inSlot), s.out.argmins(su.outSlot), collect, idBuf)
	return matches, effK, du, dv, true, ids
}

// midpointDegree weights directed midpoints by their estimated total
// (in+out) degree (measure kernel hook).
func (s *DirectedStore) midpointDegree(w uint64) float64 {
	return s.OutDegree(w) + s.InDegree(w)
}

// Estimate returns the estimate of any query measure for the candidate
// arc u → v. Note the asymmetry: Estimate(m, u, v) scores u → v, not
// v → u.
func (s *DirectedStore) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(s, m, u, v)
}

// EstimateJaccard returns the MinHash estimate of
// |N_out(u) ∩ N_in(v)| / |N_out(u) ∪ N_in(v)| for the candidate arc
// u → v. Note the asymmetry: EstimateJaccard(u, v) scores u → v, not
// v → u.
func (s *DirectedStore) EstimateJaccard(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryJaccard, u, v)
	return f
}

// EstimateCommonNeighbors returns the estimated number of directed
// two-path midpoints |{w : u → w → v}|.
func (s *DirectedStore) EstimateCommonNeighbors(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCommonNeighbors, u, v)
	return f
}

// EstimateAdamicAdar returns the estimated directed Adamic–Adar index
// Σ_{w ∈ N_out(u) ∩ N_in(v)} 1/ln d(w), weighting midpoints by their
// estimated total (in+out) degree.
func (s *DirectedStore) EstimateAdamicAdar(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryAdamicAdar, u, v)
	return f
}

// EstimateResourceAllocation returns the estimated directed
// resource-allocation index Σ_{w ∈ N_out(u) ∩ N_in(v)} 1/d(w), the
// Adamic–Adar construction with 1/d midpoint weights (total in+out
// degree, clamped at 2 as everywhere else).
func (s *DirectedStore) EstimateResourceAllocation(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryResourceAllocation, u, v)
	return f
}

// EstimatePreferentialAttachment returns the directed degree product
// d_out(u)·d_in(v) — the propensity of u to emit arcs times the
// propensity of v to receive them.
func (s *DirectedStore) EstimatePreferentialAttachment(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryPreferentialAttachment, u, v)
	return f
}

// EstimateCosine returns the estimated directed cosine similarity
// |N_out(u) ∩ N_in(v)| / sqrt(d_out(u)·d_in(v)). Pairs with an unknown
// endpoint or a zero side-degree score 0.
func (s *DirectedStore) EstimateCosine(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCosine, u, v)
	return f
}

// dirVertexOverhead is the rough per-vertex bookkeeping charge (map
// entry + pointers + two counters) used by MemoryBytes; package-level
// for the sharded directed store's memory gauges.
const dirVertexOverhead = 56

// MemoryBytes returns the payload memory: the two register banks' actual
// storage plus the usual rough per-vertex map overhead.
func (s *DirectedStore) MemoryBytes() int {
	return s.out.memoryBytes() + s.in.memoryBytes() + dirVertexOverhead*len(s.vertices)
}
