package core

import "errors"

// Cooperative cancellation for the batched hot paths (DESIGN.md §2.12):
// every Store's ScoreBatch and IngestBatch take a done channel. The
// server's request deadlines surface here — the core package stays free
// of context plumbing, and a nil done means "never cancelled" at zero
// cost.
//
// Granularity is deliberate, not best-effort:
//
//   - The sharded stores' ScoreBatch cancels at shard granularity:
//     workers stop claiming shards once done fires, in-flight shards
//     finish under their RLock, and the call reports ErrCanceled with the
//     output unspecified.
//   - The sharded stores' IngestBatch cancels only BEFORE the batch is
//     applied. Once the first shard lock is taken it always completes:
//     a half-applied batch would desynchronize the store from the WAL's
//     acked prefix, which the durability layer's log-before-apply
//     contract forbids.
//   - The single-writer stores check done once, on entry, for both.

// ErrCanceled is returned by ScoreBatch and IngestBatch when done fired
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
