package core

import (
	"errors"

	"linkpred/internal/stream"
)

// Cooperative cancellation for the batched hot paths (DESIGN.md §2.12).
// The server's request deadlines surface here as a done channel — the
// core package stays free of context plumbing, and a nil done
// everywhere means "never cancelled" at zero cost.
//
// Granularity is deliberate, not best-effort:
//
//   - Queries (ScoreBatchCancel) cancel at shard granularity: workers
//     stop claiming shards once done fires, in-flight shards finish
//     under their RLock, and the call reports ErrCanceled with the
//     output unspecified.
//   - Ingest (IngestBatchCancel) cancels only BEFORE the batch is
//     applied. Once the first shard lock is taken it always completes:
//     a half-applied batch would desynchronize the store from the WAL's
//     acked prefix, which the durability layer's log-before-apply
//     contract forbids.

// ErrCanceled is returned by the *Cancel variants when done fired
// before the operation committed. For queries the output is
// unspecified; for ingest, nothing was applied.
var ErrCanceled = errors.New("core: operation canceled")

// canceled polls a done channel without blocking; nil never cancels.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// CancelBatchScorer is the capability of stores whose batched query
// path honors cooperative cancellation. Semantics match BatchScorer
// with the granularity documented above.
type CancelBatchScorer interface {
	ScoreBatchCancel(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error)
}

// CancelBatchIngester is the capability of stores whose batched ingest
// honors pre-commit cancellation: done fires before the batch is handed
// off → ErrCanceled and nothing applied; after → the batch completes.
type CancelBatchIngester interface {
	IngestBatchCancel(edges []stream.Edge, done <-chan struct{}) error
}

var (
	_ CancelBatchScorer   = (*Sharded)(nil)
	_ CancelBatchScorer   = (*ShardedDirected)(nil)
	_ CancelBatchIngester = (*Sharded)(nil)
	_ CancelBatchIngester = (*ShardedDirected)(nil)
)
