package core

import (
	"fmt"
	"math"
	"sync"

	"linkpred/internal/hashing"
	"linkpred/internal/stream"
)

// DegreeMode selects how per-vertex degrees — needed by the
// common-neighbor and Adamic–Adar estimators — are maintained.
type DegreeMode int

const (
	// DegreeArrivals counts edge arrivals per vertex. It is exact when
	// every distinct edge appears once in the stream (the model of the
	// paper's analysis) and overcounts under duplicate arrivals.
	DegreeArrivals DegreeMode = iota
	// DegreeDistinctKMV estimates the number of *distinct* neighbors from
	// the MinHash registers themselves (a k-minimum-values distinct
	// counter; the register bank caches its sum in 12 bytes per vertex so
	// a degree read is O(1)). It is robust to duplicate edges at the
	// price of ~1/√k relative noise in the degree terms.
	DegreeDistinctKMV
)

// String returns the mode's name.
func (m DegreeMode) String() string {
	switch m {
	case DegreeArrivals:
		return "arrivals"
	case DegreeDistinctKMV:
		return "kmv"
	default:
		return fmt.Sprintf("DegreeMode(%d)", int(m))
	}
}

// MaxTiers bounds the register-budget ladder of a tiered store. Config
// carries the ladder as a fixed-size array (not a slice) so Config stays
// comparable — the sharded loaders verify shard-config agreement with ==.
const MaxTiers = 4

// Tier is one rung of the query-aware register-budget ladder (DESIGN.md
// §2.13): vertices whose arrival count has reached PromoteAt carry K
// registers. The ladder trades registers on cold vertices for registers
// on the hot ones queries actually hit — the gSketch budgeting idea.
type Tier struct {
	// K is the register count of sketches in this tier.
	K int
	// PromoteAt is the per-vertex arrival count at which a vertex enters
	// this tier. Tier 0 must have PromoteAt == 0; later tiers must be
	// strictly increasing in both K and PromoteAt. Promotion depends only
	// on the vertex's own monotone counter, so it is deterministic under
	// any apply order (per-edge, batched, WAL replay).
	PromoteAt int64
}

// Config parameterises a sketch store.
type Config struct {
	// K is the number of MinHash registers per vertex. Larger K means
	// lower estimator variance (error ∝ 1/√K) and proportionally more
	// space and per-edge time. See theory.SketchSizeFor to derive K from
	// a target (ε, δ). Required: 1 <= K <= 2^20, the widest sketch a
	// saved image can carry.
	K int
	// Seed determines the hash family. Two stores with equal Seed, K and
	// Hash build identical sketches for identical streams.
	Seed uint64
	// Hash selects the hash-family construction. The default, mixed
	// hashing, is the fast path; tabulation trades speed for formal
	// 3-independence.
	Hash hashing.Kind
	// Degrees selects degree maintenance; see DegreeMode.
	Degrees DegreeMode
	// EnableBiased additionally maintains the vertex-biased bottom-K
	// sketches used by the alternative Adamic–Adar estimator
	// (EstimateAdamicAdarBiased). It roughly doubles per-vertex space.
	EnableBiased bool
	// TrackTriangles accumulates a streaming estimate of the global
	// triangle count (see triangles.go) at one extra O(K) register
	// comparison per edge.
	TrackTriangles bool
	// Tiers, when set (Tiers[0].K > 0), makes the register count a
	// per-vertex property: new vertices start with Tiers[0].K registers
	// and are promoted up the ladder as their arrival counts cross each
	// tier's PromoteAt. The last configured tier's K must equal K (the
	// hash family is sized for the largest sketches). The zero value is
	// the uniform store: every vertex carries exactly K registers, and
	// every on-disk image stays byte-identical to the pre-tier format.
	Tiers [MaxTiers]Tier
}

// activeTiers returns the configured tier ladder — the prefix of Tiers
// with K > 0 — or nil for a uniform store.
func (c Config) activeTiers() []Tier {
	n := 0
	for n < MaxTiers && c.Tiers[n].K > 0 {
		n++
	}
	if n == 0 {
		return nil
	}
	return c.Tiers[:n:n]
}

// tiered reports whether the config uses per-vertex register budgets.
func (c Config) tiered() bool { return c.Tiers[0].K > 0 }

// validateTiers checks the tier ladder. The zero ladder (uniform) is
// always valid.
func (c Config) validateTiers() error {
	ts := c.activeTiers()
	if ts == nil {
		for _, t := range c.Tiers {
			if t != (Tier{}) {
				return fmt.Errorf("core: Config.Tiers has a gap: set tiers contiguously from Tiers[0]")
			}
		}
		return nil
	}
	for i := len(ts); i < MaxTiers; i++ {
		if c.Tiers[i] != (Tier{}) {
			return fmt.Errorf("core: Config.Tiers has a gap at %d: set tiers contiguously from Tiers[0]", i)
		}
	}
	if len(ts) < 2 {
		return fmt.Errorf("core: Config.Tiers needs at least two tiers (one tier is the uniform store; leave Tiers zero)")
	}
	if ts[0].PromoteAt != 0 {
		return fmt.Errorf("core: Tiers[0].PromoteAt must be 0, got %d", ts[0].PromoteAt)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].K <= ts[i-1].K {
			return fmt.Errorf("core: tier K values must be strictly increasing (Tiers[%d].K = %d, Tiers[%d].K = %d)",
				i-1, ts[i-1].K, i, ts[i].K)
		}
		if ts[i].PromoteAt <= ts[i-1].PromoteAt {
			return fmt.Errorf("core: tier PromoteAt values must be strictly increasing (Tiers[%d] = %d, Tiers[%d] = %d)",
				i-1, ts[i-1].PromoteAt, i, ts[i].PromoteAt)
		}
	}
	if last := ts[len(ts)-1].K; last != c.K {
		return fmt.Errorf("core: last tier K (%d) must equal Config.K (%d): the hash family is sized for the largest sketches", last, c.K)
	}
	return nil
}

// tierFor returns the tier a vertex with the given monotone counter
// value occupies: the highest tier whose PromoteAt the counter has met.
// This is the whole promotion rule — no clock, no sampling, no
// cross-vertex state — which is what makes tiered stores byte-identical
// under every apply order and under WAL replay.
func tierFor(tiers []Tier, count int64) int {
	t := 0
	for t+1 < len(tiers) && count >= tiers[t+1].PromoteAt {
		t++
	}
	return t
}

// lazyFamily is a store's hash family, built on first use. Only ingest
// hashes — queries, Save and the loaders compare and copy registers — so
// a store restored from an image pays for its K hash functions (16 KiB
// each under tabulation) only once it ingests, and a forged image header
// declaring a wide K cannot make a load allocate tables it never uses.
// It also means only shard 0 of a sharded store, which hashes for all
// shards, ever builds one.
type lazyFamily struct {
	once sync.Once
	cfg  Config
	f    *hashing.Family
}

// get returns the family, building it on the first call. Safe for
// concurrent use.
func (l *lazyFamily) get() *hashing.Family {
	l.once.Do(func() { l.f = hashing.NewFamily(l.cfg.Hash, l.cfg.K, l.cfg.Seed) })
	return l.f
}

// vertexState is the constant-size per-vertex state. The MinHash
// registers themselves live in the store's register bank (see regBank in
// sketch.go); slot indexes the vertex's k-span there.
type vertexState struct {
	slot     int32
	arrivals int64
	biased   *biasedSketch // nil unless Config.EnableBiased
	// triangles accumulates this vertex's share of closed triangles when
	// Config.TrackTriangles is set (see triangles.go).
	triangles float64
}

// SketchStore holds the per-vertex sketches for a graph stream and
// implements the paper's constant-time-per-edge maintenance.
//
// A SketchStore is not safe for concurrent mutation; wrap it or shard the
// stream if concurrent ingest is needed (estimator methods are read-only
// and may run concurrently with each other, but not with ProcessEdge).
type SketchStore struct {
	cfg      Config
	family   *lazyFamily
	biasHash hashing.Mixed // global rank hash for biased sketches
	vertices map[uint64]*vertexState
	bank     regBank // struct-of-arrays register storage for all vertices
	tiers    []Tier  // cfg.activeTiers(); nil on uniform stores
	edges    int64
	// triangles accumulates the streaming triangle estimate when
	// Config.TrackTriangles is set (see triangles.go).
	triangles float64

	// hashBuf is reused across ProcessEdge calls to keep the per-edge
	// path allocation-free after vertex states exist.
	hashBuf []uint64
}

// validateK bounds the register count to [1, maxPersistK]: the widest
// sketch any loader accepts, so every store can reload its own image,
// and the range the KMV fixed-point sum is sized for (see kmvTerm).
// Tier widths are strictly below K (validateTiers), so they are bounded
// too.
func (c Config) validateK() error {
	if c.K < 1 || c.K > maxPersistK {
		return fmt.Errorf("core: Config.K must be in [1, %d], got %d", maxPersistK, c.K)
	}
	return nil
}

// NewSketchStore returns an empty store with the given configuration.
// It returns an error if cfg.K is outside [1, 2^20] or cfg is otherwise
// invalid.
func NewSketchStore(cfg Config) (*SketchStore, error) {
	if err := cfg.validateK(); err != nil {
		return nil, err
	}
	if err := cfg.validateTiers(); err != nil {
		return nil, err
	}
	if cfg.tiered() && cfg.EnableBiased {
		return nil, fmt.Errorf("core: Config.Tiers cannot be combined with EnableBiased")
	}
	if cfg.tiered() && cfg.TrackTriangles {
		return nil, fmt.Errorf("core: Config.Tiers cannot be combined with TrackTriangles")
	}
	s := &SketchStore{
		cfg:      cfg,
		family:   &lazyFamily{cfg: cfg},
		biasHash: hashing.NewMixed(cfg.Seed ^ 0xb1a5ed5eedf00d42),
		vertices: make(map[uint64]*vertexState),
		tiers:    cfg.activeTiers(),
	}
	s.bank.init(cfg, true)
	return s, nil
}

// Reserve pre-sizes the store for n expected vertices: the vertex map
// gets its capacity up front (only effective before any edge arrives)
// and the register bank's tier-0 arena is grown once instead of through
// a doubling cascade. A sizing hint, never required for correctness.
func (s *SketchStore) Reserve(n int) {
	if n <= 0 {
		return
	}
	if len(s.vertices) == 0 {
		s.vertices = make(map[uint64]*vertexState, n)
	}
	s.bank.reserve([MaxTiers]int{n})
}

// TierOccupancy returns the live vertex count per register tier, or nil
// for a uniform store.
func (s *SketchStore) TierOccupancy() []int {
	if s.tiers == nil {
		return nil
	}
	return s.bank.tierCounts()
}

// Config returns the store's configuration.
func (s *SketchStore) Config() Config { return s.cfg }

// ProcessEdge folds one stream edge into the sketches of both endpoints.
// Self-loops are ignored. Cost: O(K) hash evaluations and register
// updates per endpoint.
func (s *SketchStore) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		return
	}
	su := s.state(e.U)
	sv := s.state(e.V)

	if s.cfg.TrackTriangles {
		// Count triangles this edge closes, before its own insertion.
		s.addTriangles(su, sv)
	}

	if s.tiers != nil {
		// Tiered order per endpoint: count the arrival, promote if the
		// count crossed a threshold, then fold the neighbor — so the
		// arrival that earns a tier is the first one folded into the new
		// registers. Every apply path (sequential, batched, WAL replay)
		// uses this same per-half-edge order, which is what keeps tiered
		// stores byte-identical across them.
		s.hashBuf = s.family.get().HashAll(e.V, s.hashBuf)
		su.arrivals++
		s.promoteIfDue(su)
		s.bank.update(su.slot, e.V, s.hashBuf)
		s.hashBuf = s.family.get().HashAll(e.U, s.hashBuf)
		sv.arrivals++
		s.promoteIfDue(sv)
		s.bank.update(sv.slot, e.U, s.hashBuf)
		s.edges++
		return
	}

	s.hashBuf = s.family.get().HashAll(e.V, s.hashBuf)
	s.bank.update(su.slot, e.V, s.hashBuf)
	s.hashBuf = s.family.get().HashAll(e.U, s.hashBuf)
	s.bank.update(sv.slot, e.U, s.hashBuf)

	su.arrivals++
	sv.arrivals++
	s.edges++

	if s.cfg.EnableBiased {
		// Insert each endpoint into the other's biased sketch using the
		// degree known *after* this arrival (see biased.go for why).
		su.biased.insert(e.V, s.rank(e.V))
		sv.biased.insert(e.U, s.rank(e.U))
	}
}

// ProcessEdges folds a batch of edges in order. For the single-threaded
// store it is exactly a loop over ProcessEdge — there are no locks to
// amortize — and exists so callers can drive the plain and sharded
// stores through one batch-shaped API (the sharded ProcessEdges is the
// one with the staged pipeline).
func (s *SketchStore) ProcessEdges(edges []stream.Edge) {
	for _, e := range edges {
		s.ProcessEdge(e)
	}
}

// Process consumes an entire stream, returning the number of edges
// processed and the first source error, if any.
func (s *SketchStore) Process(src stream.Source) (int64, error) {
	var n int64
	err := stream.ForEach(src, func(e stream.Edge) error {
		s.ProcessEdge(e)
		n++
		return nil
	})
	return n, err
}

// promoteIfDue advances st, one rung at a time, to the tier its arrival
// count has earned. Depends only on st's own monotone counter, so it
// commutes with everything other vertices do.
func (s *SketchStore) promoteIfDue(st *vertexState) {
	t := int(st.slot >> tierShift)
	for t+1 < len(s.tiers) && st.arrivals >= s.tiers[t+1].PromoteAt {
		t++
		st.slot = s.bank.promote(st.slot, t)
	}
}

// state returns (creating if needed) the per-vertex state of u. Creating
// a vertex allocates a bank slot, which may move the bank's backing
// arrays — register slices derived before a state call are stale after
// it (see regBank).
func (s *SketchStore) state(u uint64) *vertexState {
	st := s.vertices[u]
	if st == nil {
		st = s.newState(u, 0)
	}
	return st
}

// newState creates the state of u, a vertex the store does not hold,
// with its slot in tier t: tier 0 for a vertex the stream just met, and
// for a loaded one the tier its arrival count has earned.
func (s *SketchStore) newState(u uint64, t int) *vertexState {
	st := &vertexState{slot: s.bank.allocAt(t)}
	if s.cfg.EnableBiased {
		st.biased = newBiasedSketch(s.cfg.K)
	}
	s.vertices[u] = st
	return st
}

// registers returns st's register-value and argmin spans in the store's
// bank. Re-derive after any operation that can create a vertex.
func (s *SketchStore) registers(st *vertexState) (vals, ids []uint64) {
	return s.bank.regs(st.slot), s.bank.argmins(st.slot)
}

// Knows reports whether u has appeared in the stream.
func (s *SketchStore) Knows(u uint64) bool { return s.vertices[u] != nil }

// NumVertices returns the number of vertices seen so far.
func (s *SketchStore) NumVertices() int { return len(s.vertices) }

// NumEdges returns the number of (non-self-loop) edges processed,
// counting duplicates.
func (s *SketchStore) NumEdges() int64 { return s.edges }

// Degree returns the store's estimate of u's degree under the configured
// DegreeMode, or 0 if u is unknown. Under DegreeArrivals it is the exact
// arrival count; under DegreeDistinctKMV it is the KMV distinct-neighbor
// estimate.
func (s *SketchStore) Degree(u uint64) float64 {
	st := s.vertices[u]
	if st == nil {
		return 0
	}
	return s.degree(st)
}

// degree reads st's degree from the bank: the arrival count, or the KMV
// estimate from the slot's cached sum (O(1) either way).
func (s *SketchStore) degree(st *vertexState) float64 {
	return s.bank.degree(st.slot, st.arrivals)
}

// The KMV distinct-degree estimator. Each register holds the minimum of
// n i.i.d. uniforms (one per distinct neighbor, via hashing.Float01);
// −ln(1−min) is then Exp(n) distributed, so the sum over k registers is
// Gamma(k, n) and (k−1)/sum is the standard unbiased estimate of n.
//
// The sum is kept in fixed point (kmvFracBits fractional bits) rather
// than as a float: integer addition is associative, so a sum maintained
// incrementally by the register bank as registers drop (regBank.update)
// equals one rebuilt from the registers (kmvSum) bit for bit, whatever
// order the neighbors arrived in. Every degree read — cached or from
// scratch — ends in kmvEstimate, so every path yields the same float.

// kmvFracBits is the fixed-point scale of KMV terms. A term is at most
// −ln(2^−53) ≈ 36.7 < 2^6, and K ≤ maxPersistK = 2^20 (validateK), so a
// slot's sum stays below 2^(6+20+kmvFracBits) = 2^63: no overflow for
// any store the constructors accept. The rounding error, ≤ 2^−38 per
// term, is far below the estimator's 1/√k noise.
const kmvFracBits = 37

// kmvTerm is register value v's contribution to the KMV sum:
// −ln(1−Float01(v)) rounded to fixed point.
func kmvTerm(v uint64) uint64 {
	r := hashing.Float01(v)
	if r >= 1 { // guard the top of the range so Log1p stays finite
		r = 1 - 1.0/(1<<53)
	}
	return uint64(-math.Log1p(-r)*(1<<kmvFracBits) + 0.5)
}

// kmvSum returns the fixed-point sum of kmvTerm over the non-empty
// registers of vals, and the number of empty ones.
func kmvSum(vals []uint64) (sum uint64, empty int) {
	for _, v := range vals {
		if v == emptyRegister {
			empty++
			continue
		}
		sum += kmvTerm(v)
	}
	return sum, empty
}

// kmvEstimate turns a k-register sketch's KMV sum into a distinct-count
// estimate. Any empty register means the sketch has not seen enough
// neighbors to estimate: degree 0. For k == 1 the MLE 1/sum is used.
// The estimate is clamped to [1, arrivals]: a vertex in the store has
// at least one neighbor, and cannot have more distinct neighbors than
// arrivals.
func kmvEstimate(sum uint64, empty, k int, arrivals int64) float64 {
	if empty != 0 {
		return 0
	}
	if sum == 0 {
		return float64(arrivals)
	}
	s := float64(sum) / (1 << kmvFracBits)
	var est float64
	if k == 1 {
		est = 1 / s
	} else {
		est = float64(k-1) / s
	}
	return math.Max(1, math.Min(est, float64(arrivals)))
}

// kmvDistinct estimates the number of distinct items folded into the
// registers vals, summing from scratch. The windowed and dynamic stores,
// which have no single bank span per vertex, read degrees through it;
// bank-backed stores read the cached sum (regBank.degree) and agree with
// it bit for bit.
func kmvDistinct(vals []uint64, arrivals int64) float64 {
	sum, empty := kmvSum(vals)
	return kmvEstimate(sum, empty, len(vals), arrivals)
}

// vertexOverhead is the rough per-vertex bookkeeping charge (map entry +
// pointers + counter) used by MemoryBytes. Package-level so the sharded
// store's per-shard memory gauges can reuse the same formula.
const vertexOverhead = 48

// MemoryBytes returns the payload memory of the store: the register
// bank's actual storage (values, plus argmin ids only when the bank
// tracks them), degree counters and (if enabled) biased sketches, plus
// the standard rough per-entry map overhead used throughout this
// repository for footprint comparisons (see graph.MemoryBytes).
func (s *SketchStore) MemoryBytes() int {
	total := s.bank.memoryBytes() + vertexOverhead*len(s.vertices)
	if s.cfg.EnableBiased {
		for _, st := range s.vertices {
			total += st.biased.memoryBytes()
		}
	}
	return total
}

// rank returns the vertex-biased rank of w used by the biased sketches:
// an Exp(weight(w)) variate derived deterministically from a global hash
// of w, where weight(w) = 1/ln(max(d(w), 2)) is the Adamic–Adar weight
// under the store's *current* degree estimate for w. Lower rank ⇒ more
// likely sampled, so low-degree (high-weight) vertices are biased in.
func (s *SketchStore) rank(w uint64) float64 {
	u01 := hashing.Float01(s.biasHash.Hash(w))
	return -math.Log(u01) / s.aaWeight(w)
}

// aaWeight returns the Adamic–Adar weight 1/ln d(w) under the store's
// current degree estimate, clamping the degree at 2 so the weight is
// always finite (a true common neighbor always has degree >= 2; the
// clamp only engages for degree-1 vertices, which can never contribute
// to a well-formed query).
func (s *SketchStore) aaWeight(w uint64) float64 {
	d := math.Max(s.Degree(w), 2)
	return 1 / math.Log(d)
}
