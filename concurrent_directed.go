package linkpred

import (
	"fmt"
	"io"

	"linkpred/internal/core"
)

// ConcurrentDirected is the thread-safe directed predictor: the Directed
// API with vertex-sharded locking, for parallel ingest of follow or
// citation streams. Estimates are identical to a single-threaded
// Directed fed the same multiset of arcs. Like Concurrent, ObserveEdges
// hashes each distinct endpoint once outside any lock, folds duplicate
// arcs into arrival multiplicities, and takes each shard lock once per
// batch; ScoreBatch/TopK pin the source's out-sketch under one read lock
// and score each shard's candidate in-sketches in place, straight from
// the shard's register bank, under one read lock per shard per batch.
//
// Config.EnableBiased and Config.TrackTriangles are not supported.
type ConcurrentDirected struct {
	sharded[*core.ShardedDirected]
}

// NewConcurrentDirected returns an empty concurrent directed predictor
// with the given number of shards.
func NewConcurrentDirected(cfg Config, shards int) (*ConcurrentDirected, error) {
	store, err := core.NewShardedDirected(coreConfig(cfg), shards)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &ConcurrentDirected{sharded[*core.ShardedDirected]{facade[*core.ShardedDirected]{store: store, cfg: cfg}}}, nil
}

// OutDegree returns the out-degree estimate of u.
func (c *ConcurrentDirected) OutDegree(u uint64) float64 { return c.store.OutDegree(u) }

// InDegree returns the in-degree estimate of u.
func (c *ConcurrentDirected) InDegree(u uint64) float64 { return c.store.InDegree(u) }

// NumArcs returns the number of (non-self-loop) arcs observed (alias of
// NumEdges).
func (c *ConcurrentDirected) NumArcs() int64 { return c.store.NumArcs() }

// LoadConcurrentDirected restores a predictor saved with
// (*ConcurrentDirected).Save.
func LoadConcurrentDirected(r io.Reader) (*ConcurrentDirected, error) {
	store, err := core.LoadShardedDirected(r)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &ConcurrentDirected{sharded[*core.ShardedDirected]{facade[*core.ShardedDirected]{store: store, cfg: configFromCore(store.Config())}}}, nil
}
