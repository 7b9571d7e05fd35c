package linkpred

import (
	"fmt"
	"io"

	"linkpred/internal/core"
	"linkpred/internal/stream"
)

// Concurrent is a thread-safe streaming link predictor for parallel
// ingest: vertices are partitioned across shards, each guarded by its
// own lock, so multiple goroutines can Observe edges while others query.
// Estimates are identical to a single-threaded Predictor fed the same
// multiset of edges (MinHash updates commute), modulo the documented
// degree-read timing of the weighted estimators under concurrent writes.
//
// ObserveEdges is much faster than per-edge Observe calls: the batch's
// endpoints are hashed once per distinct vertex outside any lock,
// duplicate edges are folded into arrival multiplicities, and each
// shard's lock is taken once per batch instead of once per edge. A few
// thousand edges per batch is a good choice; see the "Parallel ingest"
// example in the README. ScoreBatch/TopK pin the source's sketch under
// one read lock and score each shard's candidates in place, straight
// from the shard's register bank, under one read lock per shard per
// batch, so per-query lock cost is O(shards), not O(candidates), and
// all candidates in a shard are scored against one coherent snapshot
// of that shard.
//
// Config.EnableBiased is not supported in concurrent mode.
type Concurrent struct {
	sharded[*core.Sharded]
}

// shardedStore is the store surface the concurrent predictors share.
type shardedStore interface {
	core.Store
	NumShards() int
}

// sharded is the facade core of the two concurrent predictors,
// Concurrent and ConcurrentDirected: the facade plus per-edge Observe
// and the shard count.
type sharded[S shardedStore] struct {
	facade[S]
}

// NewConcurrent returns an empty Concurrent predictor with the given
// number of shards (a few times the expected writer parallelism is a
// good choice). It returns an error if cfg.K < 1, shards is outside
// [1, 65536], or cfg.EnableBiased is set.
func NewConcurrent(cfg Config, shards int) (*Concurrent, error) {
	cc := coreConfig(cfg)
	cc.TrackTriangles = false // triangle tracking is single-writer only
	store, err := core.NewSharded(cc, shards)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &Concurrent{sharded[*core.Sharded]{facade[*core.Sharded]{store: store, cfg: cfg}}}, nil
}

// NumShards returns the shard count.
func (c *sharded[S]) NumShards() int { return c.store.NumShards() }

// Observe folds the edge {u, v} — the arc u → v on ConcurrentDirected —
// into the sketches. Safe for concurrent use.
func (c *sharded[S]) Observe(u, v uint64) {
	c.store.Ingest(stream.Edge{U: u, V: v})
}

// LoadConcurrent restores a predictor saved with (*Concurrent).Save.
func LoadConcurrent(r io.Reader) (*Concurrent, error) {
	store, err := core.LoadSharded(r)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &Concurrent{sharded[*core.Sharded]{facade[*core.Sharded]{store: store, cfg: configFromCore(store.Config())}}}, nil
}
