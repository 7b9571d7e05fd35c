package core

import (
	"linkpred/internal/stream"
)

// ShardedDirected is the thread-safe directed store, for parallel ingest
// of follow/citation streams: a shard set (shardset.go) of
// DirectedStores. An arc u → v updates u's out-sketch and v's
// in-sketch, and a candidate arc u → v scores u's out-sketch against
// v's in-sketch; everything else — locking, batched ingest, ScoreBatch,
// persistence — is the set's. ShardedDirected adds only the arc
// vocabulary and the two side-degree views.
type ShardedDirected struct {
	shardSet[*DirectedStore]
}

var shardedDirectedKind = &shardKind[*DirectedStore]{
	name:     "sharded directed",
	magic:    shardedDirectedMagic,
	directed: true,
	newShard: NewDirectedStore,
	decode:   loadDirected,
	format:   lpsdFormat,
}

// NewShardedDirected returns a sharded directed store. It returns an
// error under the same conditions as NewDirectedStore, or if nShards is
// outside [1, 2^16].
func NewShardedDirected(cfg Config, nShards int) (*ShardedDirected, error) {
	s := new(ShardedDirected)
	if err := s.init(shardedDirectedKind, cfg, nShards); err != nil {
		return nil, err
	}
	return s, nil
}

// ProcessArc folds the arc u → v into the sketches (alias of Ingest).
// Safe for concurrent use.
func (s *ShardedDirected) ProcessArc(e stream.Edge) { s.Ingest(e) }

// ProcessArcs folds a batch of arcs (alias of IngestBatch). Safe for
// concurrent use.
func (s *ShardedDirected) ProcessArcs(arcs []stream.Edge) { s.IngestBatch(arcs, nil) }

// OutDegree returns the out-degree estimate of u. Safe for concurrent
// use.
func (s *ShardedDirected) OutDegree(u uint64) float64 {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].OutDegree(u)
}

// InDegree returns the in-degree estimate of u. Safe for concurrent use.
func (s *ShardedDirected) InDegree(u uint64) float64 {
	i := s.shardOf(u)
	s.mus[i].RLock()
	defer s.mus[i].RUnlock()
	return s.shards[i].InDegree(u)
}

// NumArcs returns the number of (non-self-loop) arcs processed (alias of
// NumEdges). Safe for concurrent use.
func (s *ShardedDirected) NumArcs() int64 { return s.NumEdges() }

// foldHalf folds one direction of an arc (shard-set hook): neighbor nbr,
// whose precomputed hash vector is h, into owner's out-sketch when out
// is set and into its in-sketch otherwise.
func (s *DirectedStore) foldHalf(owner, nbr uint64, out bool, h []uint64) {
	vs := s.state(owner)
	if s.tiers != nil {
		// Canonical tiered order: count, promote, fold (see
		// SketchStore.ProcessEdge for why this makes batched and per-arc
		// ingest byte-identical).
		if out {
			vs.outArr++
			s.promoteOutIfDue(vs)
			s.out.update(vs.outSlot, nbr, h)
		} else {
			vs.inArr++
			s.promoteInIfDue(vs)
			s.in.update(vs.inSlot, nbr, h)
		}
		return
	}
	if out {
		s.out.update(vs.outSlot, nbr, h)
		vs.outArr++
	} else {
		s.in.update(vs.inSlot, nbr, h)
		vs.inArr++
	}
}

// side resolves u for one side of a pair query (shard-set hook): the
// source of a candidate arc reads its out-sketch, the candidate its
// in-sketch.
func (s *DirectedStore) side(u uint64, src, deg bool) (*regBank, int32, float64, bool) {
	st := s.vertices[u]
	if st == nil {
		return nil, 0, 0, false
	}
	b, slot, arr := &s.in, st.inSlot, st.inArr
	if src {
		b, slot, arr = &s.out, st.outSlot, st.outArr
	}
	var d float64
	if deg {
		d = sideDegree(b, slot, arr)
	}
	return b, slot, d, true
}
