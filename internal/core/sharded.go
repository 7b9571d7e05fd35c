package core

import (
	"fmt"

	"linkpred/internal/stream"
)

// Sharded is a thread-safe sketch store for concurrent ingest: a shard
// set (shardset.go) of SketchStores. Ingest, queries, ScoreBatch and
// persistence are the set's; Sharded adds only the
// undirected ingest vocabulary.
//
// The vertex-biased sketches are not supported in sharded mode (their
// insertion path reads the *other* endpoint's degree, which would
// require cross-shard locking on the hot path); NewSharded rejects
// Config.EnableBiased.
type Sharded struct {
	shardSet[*SketchStore]
}

var shardedKind = &shardKind[*SketchStore]{
	name:     "sharded",
	magic:    shardedMagic,
	newShard: NewSketchStore,
	decode:   loadSketchStore,
	format:   lpskFormat,
}

// NewSharded returns a Sharded store with the given number of shards.
// It returns an error if nShards is outside [1, 2^16], cfg is invalid,
// or cfg.EnableBiased or cfg.TrackTriangles is set.
func NewSharded(cfg Config, nShards int) (*Sharded, error) {
	if cfg.EnableBiased {
		return nil, fmt.Errorf("core: sharded mode does not support the vertex-biased sketches")
	}
	if cfg.TrackTriangles {
		return nil, fmt.Errorf("core: sharded mode does not support triangle tracking (the pre-insertion scan would need both shards' locks on every edge)")
	}
	s := new(Sharded)
	if err := s.init(shardedKind, cfg, nShards); err != nil {
		return nil, err
	}
	return s, nil
}

// ProcessEdge folds one edge into the sketches of both endpoints (alias
// of Ingest). Safe for concurrent use.
func (s *Sharded) ProcessEdge(e stream.Edge) { s.Ingest(e) }

// ProcessEdges folds a batch of edges (alias of IngestBatch). Safe for
// concurrent use.
func (s *Sharded) ProcessEdges(edges []stream.Edge) { s.IngestBatch(edges, nil) }

// foldHalf folds neighbor nbr, whose precomputed hash vector is h, into
// owner's sketch (shard-set hook; an undirected vertex has one sketch,
// so out is ignored).
func (s *SketchStore) foldHalf(owner, nbr uint64, _ bool, h []uint64) {
	vs := s.state(owner)
	if s.tiers != nil {
		// Same per-half-edge order as the tiered ProcessEdge: count,
		// promote, fold (see that method for why it must be this order).
		vs.arrivals++
		s.promoteIfDue(vs)
		s.bank.update(vs.slot, nbr, h)
		return
	}
	s.bank.update(vs.slot, nbr, h)
	vs.arrivals++
}

// side resolves u for either side of a pair query (shard-set hook): an
// undirected vertex has one sketch, so src is ignored.
func (s *SketchStore) side(u uint64, _, deg bool) (*regBank, int32, float64, bool) {
	st := s.vertices[u]
	if st == nil {
		return nil, 0, 0, false
	}
	var d float64
	if deg {
		d = s.degree(st)
	}
	return &s.bank, st.slot, d, true
}
