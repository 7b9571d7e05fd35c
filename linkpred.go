// Package linkpred is a streaming link-prediction library: it maintains
// constant-space per-vertex graph sketches over an edge stream and
// answers link-prediction queries — Jaccard coefficient, common-neighbor
// count, Adamic–Adar index — at any point, in constant time per edge and
// per query.
//
// It is an independent implementation of the system described in
// "Link prediction in graph streams" (Zhao, Aggarwal, He; ICDE 2016):
// MinHash-based vertex sketches with degree counters, plus a
// vertex-biased sampling variant for Adamic–Adar. See DESIGN.md for the
// construction and EXPERIMENTS.md for the reproduced evaluation.
//
// # Quick start
//
//	p, err := linkpred.New(linkpred.Config{K: 128, Seed: 42})
//	if err != nil { ... }
//	for _, e := range edges {
//		p.Observe(e.U, e.V)
//	}
//	j := p.Jaccard(u, v)          // estimated Jaccard coefficient
//	cn := p.CommonNeighbors(u, v) // estimated |N(u) ∩ N(v)|
//	aa := p.AdamicAdar(u, v)      // estimated Adamic–Adar index
//
// Accuracy scales as 1/√K: use SketchSizeFor to derive K from a target
// (ε, δ) guarantee.
//
// # Predictor modes
//
// Five predictor types cover the mode matrix — Predictor (single-writer
// undirected), Concurrent (sharded undirected), Directed and
// ConcurrentDirected (arc streams), Windowed (sliding window). All five
// embed the same engine core, so every measure, Score/ScoreBatch/TopK,
// the stats gauges, and Save behave identically across modes; the
// Engine interface is the mode-agnostic handle serving layers build on.
package linkpred

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"linkpred/internal/core"
	"linkpred/internal/stream"
)

// Edge is one element of a graph stream, with fields U, V uint64 and
// T int64: the undirected edge {U, V} (the arc U → V on directed
// predictors) observed at logical time T. Estimators ignore T, but a
// Windowed predictor places each edge in the generation covering its T
// and expires generations as T advances. Edge is the stream type the
// stores and the write-ahead log use, so batches pass through without a
// copy.
type Edge = stream.Edge

// Config parameterises a Predictor.
type Config struct {
	// K is the number of sketch registers per vertex. Space per vertex
	// and time per edge are O(K); estimation error shrinks as 1/√K.
	// Required: K >= 1. See SketchSizeFor.
	K int
	// Seed determines the hash functions. Equal configurations over equal
	// streams produce identical estimates.
	Seed uint64
	// TabulationHashing switches the hash family from the default salted
	// splitmix64 mixing (fastest) to 3-independent simple tabulation.
	TabulationHashing bool
	// DistinctDegrees switches degree maintenance from exact arrival
	// counting (correct when each distinct edge appears once in the
	// stream) to a KMV distinct-count estimate that is robust to
	// duplicate arrivals at the cost of ~1/√K degree noise.
	DistinctDegrees bool
	// EnableBiased additionally maintains vertex-biased bottom-K sketches
	// so AdamicAdarBiased is available. Roughly doubles per-vertex space.
	EnableBiased bool
	// TrackTriangles accumulates a streaming estimate of the global
	// triangle count (see Triangles) at one extra O(K) comparison per
	// observed edge.
	TrackTriangles bool
	// Tiers, when set, makes the register count a per-vertex property:
	// new vertices start with Tiers[0].K registers and are promoted up
	// the ladder as their arrival counts cross each tier's PromoteAt
	// threshold, so register memory concentrates on the heavy hitters
	// that dominate real query workloads. Tiers must be filled
	// contiguously from index 0 with strictly increasing K and PromoteAt;
	// the last set tier's K must equal Config.K, and Tiers[0].PromoteAt
	// must be 0. The zero value is the uniform store: every vertex
	// carries exactly K registers. Tiered scoring compares register
	// prefixes, so a pair's accuracy is governed by its smaller sketch
	// (see TieredErrorBound). Not supported with EnableBiased or
	// TrackTriangles.
	Tiers [MaxTiers]Tier
}

// MaxTiers is the maximum ladder depth of Config.Tiers.
const MaxTiers = core.MaxTiers

// Tier is one rung of Config.Tiers: vertices whose arrival count has
// reached PromoteAt carry K registers (until the next rung).
type Tier struct {
	K         int
	PromoteAt int64
}

// ParseTiers parses a tier ladder from its flag syntax — comma-separated
// K:PromoteAt rungs, e.g. "16:0,64:8,128:64" — into Config.Tiers. The
// empty string parses to the zero (uniform) ladder. Only the syntax is
// checked here; the structural rules (ascending K and PromoteAt, last K
// equal to Config.K) are enforced by the predictor constructors.
func ParseTiers(s string) ([MaxTiers]Tier, error) {
	var tiers [MaxTiers]Tier
	if s == "" {
		return tiers, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > MaxTiers {
		return tiers, fmt.Errorf("linkpred: %d tiers exceeds the maximum %d", len(parts), MaxTiers)
	}
	for i, p := range parts {
		kStr, atStr, ok := strings.Cut(strings.TrimSpace(p), ":")
		if !ok {
			return tiers, fmt.Errorf("linkpred: tier %q: want K:PromoteAt", p)
		}
		k, err := strconv.Atoi(kStr)
		if err != nil {
			return tiers, fmt.Errorf("linkpred: tier %q: bad register count: %w", p, err)
		}
		at, err := strconv.ParseInt(atStr, 10, 64)
		if err != nil {
			return tiers, fmt.Errorf("linkpred: tier %q: bad promotion threshold: %w", p, err)
		}
		tiers[i] = Tier{K: k, PromoteAt: at}
	}
	return tiers, nil
}

// Measure identifies a link-prediction target measure for ranking.
type Measure int

const (
	// Jaccard ranks by the estimated Jaccard coefficient.
	Jaccard Measure = iota
	// CommonNeighbors ranks by the estimated common-neighbor count.
	CommonNeighbors
	// AdamicAdar ranks by the estimated Adamic–Adar index.
	AdamicAdar
	// ResourceAllocation ranks by the estimated resource-allocation
	// index Σ 1/d(w).
	ResourceAllocation
	// PreferentialAttachment ranks by the degree product d(u)·d(v).
	PreferentialAttachment
	// Cosine ranks by the estimated cosine (Salton) similarity.
	Cosine
)

// AllMeasures lists every Measure in declaration order, for iterating
// the measure space (HTTP handlers, CLIs, benchmarks).
var AllMeasures = []Measure{
	Jaccard, CommonNeighbors, AdamicAdar,
	ResourceAllocation, PreferentialAttachment, Cosine,
}

// measureByName inverts Measure.String, backing ParseMeasure.
var measureByName = func() map[string]Measure {
	byName := make(map[string]Measure, len(AllMeasures))
	for _, m := range AllMeasures {
		byName[m.String()] = m
	}
	return byName
}()

// ParseMeasure returns the Measure with the given conventional name
// (the output of Measure.String: "jaccard", "common-neighbors",
// "adamic-adar", "resource-allocation", "preferential-attachment",
// "cosine"). It is the single name→Measure table shared by the HTTP
// server and the CLIs, so every surface dispatches the same measure set.
func ParseMeasure(name string) (Measure, error) {
	m, ok := measureByName[name]
	if !ok {
		return 0, fmt.Errorf("linkpred: unknown measure %q", name)
	}
	return m, nil
}

// queryMeasure maps the public Measure onto the core query engine's
// measure enum, shared by every facade method. Adding a measure to the
// library is a two-file change: the kernel arm in
// internal/core/measure_kernel.go, plus the constant and this mapping.
func queryMeasure(m Measure) (core.QueryMeasure, error) {
	switch m {
	case Jaccard:
		return core.QueryJaccard, nil
	case CommonNeighbors:
		return core.QueryCommonNeighbors, nil
	case AdamicAdar:
		return core.QueryAdamicAdar, nil
	case ResourceAllocation:
		return core.QueryResourceAllocation, nil
	case PreferentialAttachment:
		return core.QueryPreferentialAttachment, nil
	case Cosine:
		return core.QueryCosine, nil
	default:
		return 0, fmt.Errorf("linkpred: unknown measure %v", m)
	}
}

// String returns the measure's conventional name.
func (m Measure) String() string {
	switch m {
	case Jaccard:
		return "jaccard"
	case CommonNeighbors:
		return "common-neighbors"
	case AdamicAdar:
		return "adamic-adar"
	case ResourceAllocation:
		return "resource-allocation"
	case PreferentialAttachment:
		return "preferential-attachment"
	case Cosine:
		return "cosine"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Predictor is a streaming link predictor. It is safe for concurrent
// queries, but Observe/ObserveEdge must not run concurrently with
// anything else.
//
// The query, stats, and persistence surface (Jaccard … Cosine, Score,
// ScoreBatch, TopK, Degree, Seen, NumVertices, NumEdges, MemoryBytes,
// Save) is the shared facade; see the Engine interface for the
// mode-agnostic contract.
type Predictor struct {
	facade[*core.SketchStore]
}

// New returns an empty Predictor. It returns an error if cfg.K < 1.
func New(cfg Config) (*Predictor, error) {
	store, err := core.NewSketchStore(coreConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &Predictor{facade[*core.SketchStore]{store: store, cfg: cfg}}, nil
}

// Observe folds the undirected edge {u, v} into the sketches.
// Self-loops are ignored. Cost: O(K).
func (p *Predictor) Observe(u, v uint64) {
	p.store.ProcessEdge(stream.Edge{U: u, V: v})
}

// AdamicAdarBiased returns the vertex-biased sampling estimate of the
// Adamic–Adar index. It returns NaN unless the Predictor was built with
// Config.EnableBiased.
func (p *Predictor) AdamicAdarBiased(u, v uint64) float64 {
	return p.store.EstimateAdamicAdarBiased(u, v)
}

// UnionSize returns the estimated number of distinct vertices in
// N(u) ∪ N(v).
func (p *Predictor) UnionSize(u, v uint64) float64 { return p.store.EstimateUnionSize(u, v) }

// Triangles returns the streaming estimate of the global triangle count
// accumulated so far. It returns 0 unless the Predictor was built with
// Config.TrackTriangles. Every triangle is counted exactly once (at its
// closing edge); duplicate edge arrivals re-count the triangles they
// close, so feed deduplicated streams for calibrated counts.
func (p *Predictor) Triangles() float64 { return p.store.EstimateTriangles() }

// VertexTriangles returns the estimated number of triangles incident to
// u. Requires Config.TrackTriangles.
func (p *Predictor) VertexTriangles(u uint64) float64 {
	return p.store.EstimateVertexTriangles(u)
}

// LocalClustering returns the estimated local clustering coefficient of
// u in [0, 1]: incident triangles over d(u)·(d(u)−1)/2. Requires
// Config.TrackTriangles; returns 0 for degree < 2.
func (p *Predictor) LocalClustering(u uint64) float64 {
	return p.store.EstimateLocalClustering(u)
}

// Candidate pairs a vertex with its estimated score, as returned by TopK.
type Candidate struct {
	V     uint64
	Score float64
}

// topKByScore is the sequential reference ranking: score each candidate
// with a per-pair call, materialize everything, fully sort. The TopK
// methods now rank through the batched path (topKBatch); this is kept as
// the oracle the equivalence tests compare against — the batch path must
// reproduce its output bit-for-bit on duplicate-free candidate lists.
// NaN scores sort after every real score — a NaN that compared false
// against everything would otherwise make the ordering non-transitive
// and the ranking nondeterministic.
func topKByScore(u uint64, candidates []uint64, k int, score func(v uint64) (float64, error)) ([]Candidate, error) {
	if k <= 0 {
		return nil, nil
	}
	out := make([]Candidate, 0, len(candidates))
	for _, v := range candidates {
		if v == u {
			continue
		}
		s, err := score(v)
		if err != nil {
			return nil, err
		}
		out = append(out, Candidate{V: v, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Score, out[j].Score
		if ni, nj := math.IsNaN(si), math.IsNaN(sj); ni || nj {
			if ni != nj {
				return nj // real scores rank above NaN
			}
		} else if si != sj {
			return si > sj
		}
		return out[i].V < out[j].V
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// Load restores a Predictor saved with Save. The restored Predictor
// answers every query identically to the saved one and can continue
// consuming the stream where it left off.
func Load(r io.Reader) (*Predictor, error) {
	store, err := core.LoadSketchStore(r)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &Predictor{facade[*core.SketchStore]{store: store, cfg: configFromCore(store.Config())}}, nil
}

// SketchSizeFor returns the smallest K for which the Jaccard estimator is
// (ε, δ)-accurate: P(|Ĵ − J| ≥ ε) ≤ δ for every query pair. It panics if
// eps or delta lie outside (0, 1).
func SketchSizeFor(eps, delta float64) int { return core.SketchSizeFor(eps, delta) }

// JaccardErrorBound returns the ε guaranteed by a K-register sketch at
// confidence 1−δ. It panics if k < 1 or delta lies outside (0, 1).
func JaccardErrorBound(k int, delta float64) float64 { return core.JaccardErrorBound(k, delta) }

// SimilarityIndex is an LSH banding index over the Predictor's sketches
// for whole-graph similarity search: "which vertices have neighborhoods
// like u's?" in O(bands) bucket lookups instead of scoring every vertex.
// Pairs with Jaccard J collide in some band with probability
// 1 − (1 − J^rows)^bands; choose bands/rows so the S-curve threshold
// (1/bands)^(1/rows) sits below the similarity you care about.
//
// The index is a snapshot of the sketches at build time; rebuild it
// periodically as the stream evolves.
type SimilarityIndex struct {
	idx *core.LSHIndex
}

// Similar is one similarity-search result.
type Similar struct {
	V       uint64
	Jaccard float64
}

// BuildSimilarityIndex builds an LSH index with the given banding over
// the current sketches. Requires bands·rows ≤ Config.K.
func (p *Predictor) BuildSimilarityIndex(bands, rows int) (*SimilarityIndex, error) {
	idx, err := p.store.BuildLSHIndex(bands, rows)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &SimilarityIndex{idx: idx}, nil
}

// Similar returns vertices whose estimated Jaccard with u is at least
// minJaccard, descending, at most limit (<= 0 for all).
func (s *SimilarityIndex) Similar(u uint64, minJaccard float64, limit int) []Similar {
	raw := s.idx.Similar(u, minJaccard, limit)
	out := make([]Similar, len(raw))
	for i, r := range raw {
		out[i] = Similar{V: r.V, Jaccard: r.Jaccard}
	}
	return out
}

// Candidates returns the raw (unverified) LSH candidate set for u.
func (s *SimilarityIndex) Candidates(u uint64) []uint64 { return s.idx.Candidates(u) }

// MemoryBytes returns the index's payload memory.
func (s *SimilarityIndex) MemoryBytes() int { return s.idx.MemoryBytes() }
