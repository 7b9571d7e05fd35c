package core

import (
	"fmt"
	"math"

	"linkpred/internal/stream"
)

// The dynamic store: MinHash sketches that survive edge deletions.
//
// The insert-only register banks keep one (min-hash, argmin) pair per
// register, which is the information-theoretic floor for insertion but
// a dead end for deletion: once a neighbor's hash has displaced the
// previous minimum, that minimum is gone, so retracting the neighbor
// would leave the register wrong with no way to know it. The dynamic
// store instead keeps, per register, the *depth* smallest (hash, id)
// pairs ever inserted and still live — a bottom-k/KMV recovery buffer
// in the style of Jia et al.'s fully-dynamic similarity sketches.
// Deleting a neighbor whose hash is the current minimum re-exposes the
// next-smallest buffered pair; the register's externally visible value
// is always the head of its buffer.
//
// The buffer is finite, so recovery can underflow: if a register has
// ever discarded an arrival (buffer full, incoming hash too large — or
// an eviction pushed a buffered pair out), deletions may drain the
// buffer below the point where the discarded arrival *might* have been
// the true next minimum. The store cannot reconstruct it, and it never
// guesses: the register is marked degraded (sticky, counted by
// DegradedRegisters) the moment a removal leaves it under capacity
// with a nonzero discard count. A degraded register keeps serving its
// best-known value — estimates stay plausible — but the flag tells the
// operator the sketch needs a rebuild from the source of truth (replay
// the live edge set into a fresh store). "Register-identical or
// flagged-degraded, never silently wrong" is the contract the property
// tests pin.
//
// Per-register state, for a store of width K and recovery depth r:
//
//	entries  r × (hash u64, id u64, refs u32)  sorted by (hash, id)
//	meta     live count, discarded-arrival count, degraded flag
//
// refs counts duplicate arrivals of the same neighbor so that a stream
// with repeated edges deletes symmetrically: each delete undoes one
// arrival, and the entry leaves the buffer only when its last arrival
// is retracted.
//
// Deletion is two-pass per endpoint. Pass 1 (liveness): an edge is
// considered live only if, in *every* register, the neighbor's pair is
// either buffered or could plausibly be among that register's
// discarded arrivals (lost > 0). If any register refutes it, the edge
// was never inserted — the whole delete is a no-op, which makes
// delete-before-insert and delete-of-unknown-edge exact no-ops rather
// than slow corruption. Pass 2 applies the removal. The check is
// one-sided: an edge never inserted can still pass every register
// (each register happens to have lost arrivals), in which case the
// delete lands on the discard accounting and degrades registers
// conservatively — wrong flags, never wrong values.
//
// Like SketchStore, a DynamicStore is not safe for concurrent
// mutation; estimator methods are read-only and may run concurrently
// with each other, but not with ProcessEdge or DeleteEdge.

// DefaultRecoveryDepth is the per-register recovery-buffer depth used
// when a caller does not specify one. Depth r survives roughly r−1
// deletions per register between discards before degrading; 8 entries
// (192 bytes/register) absorbs realistic retraction rates while
// keeping the store within ~8× the insert-only bank's footprint.
const DefaultRecoveryDepth = 8

// maxDynDepth bounds the recovery depth accepted by the constructor
// and the image loader; per-register counts are persisted as one byte.
const maxDynDepth = 255

// dynEntry is one buffered (hash, id) pair. refs counts live duplicate
// arrivals of the neighbor.
type dynEntry struct {
	hash uint64
	id   uint64
	refs uint32
}

// dynEntryBytes and dynRegMetaBytes are the memory charges used by
// MemoryBytes; dynamic_test.go pins them to the real struct sizes.
const (
	dynEntryBytes   = 24
	dynRegMetaBytes = 8
)

// dynRegMeta is one register's bookkeeping: n live entries, the number
// of arrivals discarded past the buffer (with duplicate multiplicity),
// and the sticky degraded flag.
type dynRegMeta struct {
	n    uint16
	bad  bool
	lost uint32
}

// dynVertexState is the per-vertex state: len(meta) register segments of
// depth entries each, flat in ents (register i occupies
// ents[i*depth : i*depth+meta[i].n], sorted ascending by (hash, id)).
// The register count is Config.K on uniform stores and the vertex's tier
// size on tiered ones. inserts counts ProcessEdge arrivals only — unlike
// arrivals it never decrements on delete, which is what makes it a valid
// monotone promotion driver (a promote-then-demote flap under
// insert/delete churn would never converge).
type dynVertexState struct {
	arrivals int64
	inserts  int64
	ents     []dynEntry
	meta     []dynRegMeta
}

// DynamicStore is the deletion-capable sketch store. It implements the
// full Store surface — all six measures score through the shared
// measure kernel — plus DeleteEdge/DeleteEdges and the degradation
// gauges.
type DynamicStore struct {
	cfg          Config
	depth        int
	family       *lazyFamily
	vertices     map[uint64]*dynVertexState
	tiers        []Tier
	edges        int64
	degradedRegs int64

	// hashU/hashV are reused across ProcessEdge/DeleteEdge calls; two
	// buffers because a delete needs both endpoints' hash vectors alive
	// at once for the liveness pass.
	hashU []uint64
	hashV []uint64
}

// NewDynamicStore returns an empty deletion-capable store with the
// given configuration and per-register recovery depth (0 selects
// DefaultRecoveryDepth). The biased-sketch and triangle-tracking
// options are insert-only structures and are rejected here.
func NewDynamicStore(cfg Config, depth int) (*DynamicStore, error) {
	if err := cfg.validateK(); err != nil {
		return nil, err
	}
	if depth == 0 {
		depth = DefaultRecoveryDepth
	}
	if depth < 1 || depth > maxDynDepth {
		return nil, fmt.Errorf("core: recovery depth must be in [1, %d], got %d", maxDynDepth, depth)
	}
	if cfg.EnableBiased {
		return nil, fmt.Errorf("core: the dynamic store does not support biased sketches (insert-only)")
	}
	if cfg.TrackTriangles {
		return nil, fmt.Errorf("core: the dynamic store does not support triangle tracking (insert-only)")
	}
	if err := cfg.validateTiers(); err != nil {
		return nil, err
	}
	return &DynamicStore{
		cfg:      cfg,
		depth:    depth,
		family:   &lazyFamily{cfg: cfg},
		vertices: make(map[uint64]*dynVertexState),
		tiers:    cfg.activeTiers(),
	}, nil
}

// Config returns the store's configuration.
func (s *DynamicStore) Config() Config { return s.cfg }

// RecoveryDepth returns the per-register recovery-buffer depth r.
func (s *DynamicStore) RecoveryDepth() int { return s.depth }

// DegradedRegisters returns the number of registers whose recovery
// buffer has underflowed: their values may no longer equal a
// never-saw-the-deleted-edges sketch. The count is sticky; it only
// resets on a rebuild from the source of truth.
func (s *DynamicStore) DegradedRegisters() int64 { return s.degradedRegs }

// Degraded reports whether any register has degraded.
func (s *DynamicStore) Degraded() bool { return s.degradedRegs > 0 }

func (s *DynamicStore) state(u uint64) *dynVertexState {
	st := s.vertices[u]
	if st == nil {
		k := s.cfg.K
		if s.tiers != nil {
			k = s.tiers[0].K
		}
		st = &dynVertexState{
			ents: make([]dynEntry, k*s.depth),
			meta: make([]dynRegMeta, k),
		}
		s.vertices[u] = st
	}
	return st
}

// k returns st's register count: Config.K on uniform stores, the
// vertex's current tier size on tiered ones.
func (st *dynVertexState) k() int { return len(st.meta) }

// promoteDynIfDue widens st to the tier its monotone insert count has
// earned. The existing registers carry over unchanged; each NEW register
// starts empty with lost set to the arrivals it never saw (inserts−1 —
// everything before the insert being applied), so the delete-path
// liveness and discard accounting stay sound: a pre-promotion neighbor's
// deletion lands on lost rather than silently missing, degrading the
// register conservatively instead of corrupting it.
func (s *DynamicStore) promoteDynIfDue(st *dynVertexState) {
	t := tierFor(s.tiers, st.inserts)
	nk := s.tiers[t].K
	k := st.k()
	if nk <= k {
		return
	}
	ents := make([]dynEntry, nk*s.depth)
	copy(ents, st.ents)
	meta := make([]dynRegMeta, nk)
	copy(meta, st.meta)
	lost := st.inserts - 1
	if lost > math.MaxUint32 {
		lost = math.MaxUint32
	}
	for i := k; i < nk; i++ {
		meta[i].lost = uint32(lost)
	}
	st.ents, st.meta = ents, meta
}

// Reserve pre-sizes the vertex map for n expected vertices (sizing
// hint).
func (s *DynamicStore) Reserve(n int) {
	if n > 0 && len(s.vertices) == 0 {
		s.vertices = make(map[uint64]*dynVertexState, n)
	}
}

// TierOccupancy returns the vertex count per tier, or nil on a uniform
// store.
func (s *DynamicStore) TierOccupancy() []int {
	if s.tiers == nil {
		return nil
	}
	out := make([]int, len(s.tiers))
	for _, st := range s.vertices {
		for i := len(s.tiers) - 1; i >= 0; i-- {
			if s.tiers[i].K == st.k() {
				out[i]++
				break
			}
		}
	}
	return out
}

// regVal returns register i's externally visible value: the smallest
// buffered hash, or emptyRegister when the buffer is empty.
func (st *dynVertexState) regVal(i, depth int) uint64 {
	if st.meta[i].n == 0 {
		return emptyRegister
	}
	return st.ents[i*depth].hash
}

// regID returns register i's argmin id (meaningful only when the
// register is non-empty).
func (st *dynVertexState) regID(i, depth int) uint64 {
	return st.ents[i*depth].id
}

// fillRegs materialises st's register values into vals (st.k() words).
func (s *DynamicStore) fillRegs(st *dynVertexState, vals []uint64) {
	for i := range vals {
		vals[i] = st.regVal(i, s.depth)
	}
}

// ProcessEdge folds one stream edge into the sketches of both
// endpoints. Self-loops are ignored. Cost: O(K·depth) worst case per
// endpoint (K hash evaluations plus a sorted insert per register).
func (s *DynamicStore) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	su := s.state(e.U)
	sv := s.state(e.V)
	su.inserts++
	sv.inserts++
	if s.tiers != nil {
		// Promote before folding (canonical count → promote → fold order,
		// as on the insert-only stores): the arrival that crosses a tier
		// threshold is the first to land in the widened sketch.
		s.promoteDynIfDue(su)
		s.promoteDynIfDue(sv)
	}
	s.hashV = s.family.get().HashAll(e.V, s.hashV)
	s.insertNeighbor(su, s.hashV, e.V)
	s.hashU = s.family.get().HashAll(e.U, s.hashU)
	s.insertNeighbor(sv, s.hashU, e.U)
	su.arrivals++
	sv.arrivals++
	s.edges++
}

// ProcessEdges folds a batch of edges in order.
func (s *DynamicStore) ProcessEdges(edges []stream.Edge) {
	for _, e := range edges {
		s.ProcessEdge(e)
	}
}

// Ingest folds one edge into the store (alias of ProcessEdge).
func (s *DynamicStore) Ingest(e stream.Edge) { s.ProcessEdge(e) }

// IngestBatch folds a batch of edges in order (see ingestEach).
func (s *DynamicStore) IngestBatch(edges []stream.Edge, done <-chan struct{}) error {
	return ingestEach(edges, done, s.ProcessEdge)
}

// insertNeighbor folds neighbor id with hash vector hashes into every
// register of st (per-vertex count — the vertex's tier size on tiered
// stores; hashes always carries the full Config.K values).
func (s *DynamicStore) insertNeighbor(st *dynVertexState, hashes []uint64, id uint64) {
	for i := 0; i < st.k(); i++ {
		s.insertReg(st, i, hashes[i], id)
	}
}

// insertReg inserts (h, id) into register i's sorted buffer: a
// duplicate arrival bumps refs, an under-capacity buffer takes a
// sorted insert, a full buffer either evicts its largest entry (whose
// arrivals become lost) or discards the arrival (lost++).
func (s *DynamicStore) insertReg(st *dynVertexState, i int, h, id uint64) {
	base := i * s.depth
	m := &st.meta[i]
	n := int(m.n)
	pos := n
	for j := 0; j < n; j++ {
		e := st.ents[base+j]
		if e.hash == h && e.id == id {
			st.ents[base+j].refs++
			return
		}
		if e.hash > h || (e.hash == h && e.id > id) {
			pos = j
			break
		}
	}
	if n < s.depth {
		copy(st.ents[base+pos+1:base+n+1], st.ents[base+pos:base+n])
		st.ents[base+pos] = dynEntry{hash: h, id: id, refs: 1}
		m.n++
		return
	}
	if pos == n {
		// Larger than everything buffered: the arrival is discarded and
		// only its count is remembered.
		m.lost++
		return
	}
	// Evict the largest buffered pair to make room; its arrivals are no
	// longer recoverable.
	m.lost += st.ents[base+n-1].refs
	copy(st.ents[base+pos+1:base+n], st.ents[base+pos:base+n-1])
	st.ents[base+pos] = dynEntry{hash: h, id: id, refs: 1}
}

// neighborLive reports whether neighbor id is consistent with having
// been inserted into st: every register must either hold its pair or
// have discarded arrivals it could hide among. A false result proves
// the neighbor was never inserted (no register ever forgets a buffered
// pair without counting it in lost).
func (s *DynamicStore) neighborLive(st *dynVertexState, hashes []uint64, id uint64) bool {
	for i := 0; i < st.k(); i++ {
		base := i * s.depth
		m := &st.meta[i]
		found := false
		for j := 0; j < int(m.n); j++ {
			e := st.ents[base+j]
			if e.hash == hashes[i] && e.id == id {
				found = true
				break
			}
			if e.hash > hashes[i] {
				break
			}
		}
		if !found && m.lost == 0 {
			return false
		}
	}
	return true
}

// removeNeighbor undoes one arrival of neighbor id in every register
// of st. Callers must have established liveness first (so an absent
// pair always has lost > 0 to account against).
func (s *DynamicStore) removeNeighbor(st *dynVertexState, hashes []uint64, id uint64) {
	for i := 0; i < st.k(); i++ {
		base := i * s.depth
		m := &st.meta[i]
		n := int(m.n)
		idx := -1
		for j := 0; j < n; j++ {
			e := st.ents[base+j]
			if e.hash == hashes[i] && e.id == id {
				idx = j
				break
			}
			if e.hash > hashes[i] {
				break
			}
		}
		if idx < 0 {
			// The arrival was discarded or evicted; retract it from the
			// discard count instead of the buffer.
			m.lost--
			continue
		}
		st.ents[base+idx].refs--
		if st.ents[base+idx].refs > 0 {
			continue
		}
		copy(st.ents[base+idx:base+n-1], st.ents[base+idx+1:base+n])
		st.ents[base+n-1] = dynEntry{}
		m.n--
		if m.lost > 0 && !m.bad {
			// The buffer is now under capacity and this register has
			// discarded arrivals: one of them might have been the true
			// next-smallest. The value stays best-known but can no longer
			// be proven exact.
			m.bad = true
			s.degradedRegs++
		}
	}
}

// DeleteEdge retracts one prior arrival of the edge (u, v) from both
// endpoint sketches. It reports whether the delete was applied:
// self-loops, edges with an unknown endpoint, and edges the liveness
// check refutes (never inserted, or already fully deleted) are exact
// no-ops returning false. Not safe for concurrent use with ProcessEdge
// or estimator methods.
func (s *DynamicStore) DeleteEdge(e stream.Edge) bool {
	if e.IsSelfLoop() {
		return false
	}
	su, sv := s.vertices[e.U], s.vertices[e.V]
	if su == nil || sv == nil {
		return false
	}
	s.hashV = s.family.get().HashAll(e.V, s.hashV)
	s.hashU = s.family.get().HashAll(e.U, s.hashU)
	if !s.neighborLive(su, s.hashV, e.V) || !s.neighborLive(sv, s.hashU, e.U) {
		return false
	}
	s.removeNeighbor(su, s.hashV, e.V)
	s.removeNeighbor(sv, s.hashU, e.U)
	su.arrivals--
	sv.arrivals--
	s.edges--
	return true
}

// DeleteEdges retracts a batch of edges in order, returning how many
// were applied.
func (s *DynamicStore) DeleteEdges(edges []stream.Edge) int {
	applied := 0
	for _, e := range edges {
		if s.DeleteEdge(e) {
			applied++
		}
	}
	return applied
}

// Knows reports whether u currently has live state (a vertex whose
// every arrival was deleted still answers true until a rebuild; its
// degree is 0).
func (s *DynamicStore) Knows(u uint64) bool { return s.vertices[u] != nil }

// NumVertices returns the number of vertices with state.
func (s *DynamicStore) NumVertices() int { return len(s.vertices) }

// NumEdges returns the number of live (non-self-loop) edges: arrivals
// minus applied deletions.
func (s *DynamicStore) NumEdges() int64 { return s.edges }

// Degree returns the store's estimate of u's degree under the
// configured DegreeMode, or 0 if u is unknown.
func (s *DynamicStore) Degree(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return s.degree(st)
}

func (s *DynamicStore) degree(st *dynVertexState) float64 {
	if st.arrivals <= 0 {
		return 0
	}
	if s.cfg.Degrees == DegreeArrivals {
		return float64(st.arrivals)
	}
	bufp := spanPool.Get().(*[]uint64) // no bank span to borrow here
	vals := grow(*bufp, st.k())
	s.fillRegs(st, vals)
	d := kmvDistinct(vals, st.arrivals)
	*bufp = vals
	spanPool.Put(bufp)
	return d
}

// span is the side hook of single-writer queries (querybatch_single.go):
// u's visible register values filled into vals, its argmin ids into ids
// when asked for.
func (s *DynamicStore) span(u uint64, _, deg bool, vals, ids []uint64) ([]uint64, []uint64, float64, bool) {
	st := s.vertices[u]
	if st == nil {
		return nil, nil, 0, false
	}
	vals = vals[:st.k()]
	s.fillRegs(st, vals)
	if ids != nil {
		ids = ids[:st.k()]
		for i := range ids {
			ids[i] = st.regID(i, s.depth)
		}
	}
	var d float64
	if deg {
		d = s.degree(st)
	}
	return vals, ids, d, true
}

func (s *DynamicStore) bufWords() int { return s.cfg.K }

// Estimate returns the estimate of measure m for the pair (u, v); all
// six measures score through the shared measure kernel.
func (s *DynamicStore) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(single[*DynamicStore]{s}, m, u, v)
}

// ScoreBatch is Store.ScoreBatch; done is checked once, on entry. Like
// the estimator methods, it must not run concurrently with ProcessEdge
// or DeleteEdge.
func (s *DynamicStore) ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error) {
	return single[*DynamicStore]{s}.scoreBatch(m, u, candidates, out, done)
}

// MemoryBytes returns the store's estimated payload memory: the
// recovery buffers (depth entries per register, the whole reason this
// store is bigger than the insert-only banks), per-register metadata,
// and the standard per-vertex map overhead.
func (s *DynamicStore) MemoryBytes() int {
	if s.tiers == nil {
		perVertex := vertexOverhead +
			s.cfg.K*s.depth*dynEntryBytes +
			s.cfg.K*dynRegMetaBytes
		return len(s.vertices) * perVertex
	}
	// Tiered vertices size by their current tier; the walk is O(V) but
	// this store is single-writer and the gauge is scraped, not polled
	// per edge.
	total := 0
	for _, st := range s.vertices {
		total += vertexOverhead + len(st.ents)*dynEntryBytes + len(st.meta)*dynRegMetaBytes
	}
	return total
}
