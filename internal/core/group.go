package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared fan-out machinery for the batched ingest (batch.go) and the
// batched query paths (querybatch.go, querybatch_single.go): a reusable
// counting-sort workspace for grouping work items by shard or owner, a
// worker count, and two worker drivers. The grouping buffers live inside
// pooled scratch structs, and work too small to split runs inline on the
// calling goroutine, where it allocates nothing.

// grouping is a reusable counting-sort workspace. After group(n,
// nGroups, key), group g owns the item indices
// order[starts[g]:starts[g+1]], in stable (input) order.
type grouping struct {
	starts []int32
	order  []int32
	fill   []int32
}

// group stable counting-sorts the item indices 0..n-1 by key(i), which
// must lie in [0, nGroups). key is called twice per item; precompute
// into a slice if it is expensive.
func (g *grouping) group(n, nGroups int, key func(i int) int32) {
	g.starts = grow(g.starts, nGroups+1)
	g.fill = grow(g.fill, nGroups)
	clear(g.fill[:nGroups])
	for i := 0; i < n; i++ {
		g.fill[key(i)]++
	}
	g.starts[0] = 0
	for s := 0; s < nGroups; s++ {
		g.starts[s+1] = g.starts[s] + g.fill[s]
		g.fill[s] = g.starts[s]
	}
	g.order = grow(g.order, n)
	for i := 0; i < n; i++ {
		k := key(i)
		g.order[g.fill[k]] = int32(i)
		g.fill[k]++
	}
}

// workersFor is the worker count for a fan-out over n items: GOMAXPROCS,
// capped so that each worker gets at least minChunk items (below that the
// goroutine hand-off costs more than the work it parallelizes). At one
// worker the caller runs the work inline and builds no closure for it: a
// closure handed to forEachShardDone or parallelRange reaches the worker
// goroutines, so it is heap-allocated where it is built, goroutines or
// not.
func workersFor(n, minChunk int) int {
	return min(runtime.GOMAXPROCS(0), (n+minChunk-1)/minChunk)
}

// forEachShardDone calls fn(shard) for every shard on min(workers,
// nShards) goroutines, which claim shard indices off an atomic cursor,
// so a straggler shard never idles the rest of the pool. fn is
// responsible for its own locking — each shard is visited by exactly one
// worker, so per-shard locks never nest and the fan-out is deadlock-free
// by construction.
//
// done (when non-nil) is polled before each shard is claimed, and a
// fired done stops workers from claiming further shards. Shards already
// being visited run to completion — cancellation is at shard
// granularity, so the caller's scratch is safe to recycle as soon as
// this returns. The return value reports whether every shard was
// visited (false: the batch was cut short and its results are
// incomplete).
func forEachShardDone(nShards, workers int, done <-chan struct{}, fn func(shard int)) bool {
	var cursor atomic.Int32
	var cut atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(workers, nShards); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(cursor.Add(1)) - 1; s < nShards; s = int(cursor.Add(1)) - 1 {
				if canceled(done) {
					cut.Store(true)
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
	return !cut.Load()
}

// parallelRange splits [0, n) into contiguous chunks, one per worker,
// and runs fn on each. Chunks are disjoint, so fn needs no locking for
// per-index state. With one worker the call runs inline.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
