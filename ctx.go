package linkpred

import (
	"context"
	"errors"

	"linkpred/internal/core"
)

// Context-aware serving surface (DESIGN.md §2.12). The HTTP server
// attaches per-request deadlines; these methods propagate them into
// the store's batched hot paths as a done channel so an expired or
// abandoned request stops consuming query workers instead of running
// to completion.
//
// Cancellation granularity follows the core contract (core/cancel.go):
//
//   - ScoreBatchCtx / TopKCtx return ctx.Err() once the deadline fires,
//     discarding partial scores. Sharded engines stop at shard
//     granularity; single-writer engines check once, up front.
//   - ObserveEdgesCtx cancels only BEFORE the batch is committed to
//     the store. Once ingestion has started the batch always completes
//     and nil is returned — a half-applied batch would desynchronize
//     the store from a durability layer's acked WAL prefix.
//
// Every core store takes the done channel, so every engine mode
// satisfies the interfaces and callers need no mode switch.

// CtxQuerier is the capability of engines whose batched query paths
// honor context cancellation and deadlines.
type CtxQuerier interface {
	ScoreBatchCtx(ctx context.Context, m Measure, u uint64, candidates []uint64) ([]float64, error)
	TopKCtx(ctx context.Context, m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error)
}

// CtxIngester is the capability of engines whose batched ingest honors
// pre-commit context cancellation.
type CtxIngester interface {
	ObserveEdgesCtx(ctx context.Context, edges []Edge) error
}

// Compile-time checks: every facade and the Synchronized wrapper carry
// the context-aware surface.
var (
	_ CtxQuerier = (*Predictor)(nil)
	_ CtxQuerier = (*Concurrent)(nil)
	_ CtxQuerier = (*Directed)(nil)
	_ CtxQuerier = (*ConcurrentDirected)(nil)
	_ CtxQuerier = (*Windowed)(nil)
	_ CtxQuerier = (*Dynamic)(nil)
	_ CtxQuerier = (*Synchronized)(nil)

	_ CtxIngester = (*Predictor)(nil)
	_ CtxIngester = (*Concurrent)(nil)
	_ CtxIngester = (*Directed)(nil)
	_ CtxIngester = (*ConcurrentDirected)(nil)
	_ CtxIngester = (*Windowed)(nil)
	_ CtxIngester = (*Dynamic)(nil)
	_ CtxIngester = (*Synchronized)(nil)
)

// CtxQuerierOf returns e's context-aware query capability. Every engine
// this package constructs satisfies it (Synchronized implements the
// interface itself, under its own read lock), so ok is false only for
// foreign Engine implementations.
func CtxQuerierOf(e Engine) (CtxQuerier, bool) {
	q, ok := e.(CtxQuerier)
	return q, ok
}

// CtxIngesterOf returns e's context-aware ingest capability; ok is
// false only for foreign Engine implementations.
func CtxIngesterOf(e Engine) (CtxIngester, bool) {
	i, ok := e.(CtxIngester)
	return i, ok
}

// ctxErrFrom maps the core package's cancellation sentinel back onto
// the context's own error (DeadlineExceeded vs Canceled) so callers
// can distinguish 504 from 499. If the store reported cancellation but
// the context is somehow still live, the sentinel is surfaced as-is.
func ctxErrFrom(ctx context.Context, err error) error {
	if errors.Is(err, core.ErrCanceled) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

// scoreBatchCtx scores through the store's batch path with the
// request's done channel.
func (f *facade[S]) scoreBatchCtx(ctx context.Context, qm core.QueryMeasure, u uint64, candidates []uint64, out []float64) ([]float64, error) {
	res, err := f.store.ScoreBatch(qm, u, candidates, out, ctx.Done())
	if err != nil {
		return nil, ctxErrFrom(ctx, err)
	}
	return res, nil
}

// ScoreBatchCtx is ScoreBatch with deadline propagation: workers stop
// claiming score chunks once ctx is done and the call returns ctx.Err().
func (f *facade[S]) ScoreBatchCtx(ctx context.Context, m Measure, u uint64, candidates []uint64) ([]float64, error) {
	qm, err := queryMeasure(m)
	if err != nil {
		return nil, err
	}
	return f.scoreBatchCtx(ctx, qm, u, candidates, nil)
}

// TopKCtx is TopK with deadline propagation through the batched
// scoring pass; selection itself is O(N log k) and not cancellable.
func (f *facade[S]) TopKCtx(ctx context.Context, m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error) {
	qm, err := queryMeasure(m)
	if err != nil {
		return nil, err
	}
	return topKBatch(u, candidates, k, func(dedup []uint64, scores []float64) ([]float64, error) {
		return f.scoreBatchCtx(ctx, qm, u, dedup, scores)
	})
}

// ObserveEdgesCtx is ObserveEdges with pre-commit cancellation: if ctx
// is done before the batch is handed to the store, nothing is applied
// and ctx.Err() is returned; once ingestion starts the batch completes
// and nil is returned.
func (f *facade[S]) ObserveEdgesCtx(ctx context.Context, edges []Edge) error {
	return ctxErrFrom(ctx, f.store.IngestBatch(edges, ctx.Done()))
}

// ScoreBatchCtx scores a batch under one read lock acquisition,
// propagating the request deadline into the wrapped engine.
func (s *Synchronized) ScoreBatchCtx(ctx context.Context, m Measure, u uint64, candidates []uint64) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if cq, ok := s.inner.(CtxQuerier); ok {
		return cq.ScoreBatchCtx(ctx, m, u, candidates)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.inner.ScoreBatch(m, u, candidates)
}

// TopKCtx ranks a batch under one read lock acquisition, propagating
// the request deadline into the wrapped engine.
func (s *Synchronized) TopKCtx(ctx context.Context, m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if cq, ok := s.inner.(CtxQuerier); ok {
		return cq.TopKCtx(ctx, m, u, candidates, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.inner.TopK(m, u, candidates, k)
}

// ObserveEdgesCtx folds a batch under the write lock with pre-commit
// cancellation. The ctx check runs after lock acquisition, so a request
// that expired while queued behind a writer is rejected before it
// mutates anything.
func (s *Synchronized) ObserveEdgesCtx(ctx context.Context, edges []Edge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ci, ok := s.inner.(CtxIngester); ok {
		return ci.ObserveEdgesCtx(ctx, edges)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.inner.ObserveEdges(edges)
	return nil
}
