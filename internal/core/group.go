package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared fan-out machinery for the batched ingest (batch.go) and the
// batched query engine (querybatch.go): a reusable counting-sort
// workspace for grouping work items by shard or owner, and two
// GOMAXPROCS-bounded worker drivers. Everything here is
// allocation-free in steady state — the grouping buffers live inside
// pooled scratch structs, and the worker helpers spawn goroutines only
// when the work is large enough to amortize them.

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

// forEachShardDone calls fn(shard) for every shard whose group is
// non-empty under starts (a grouping.starts slice of length nShards+1).
// Workers claim shard indices off an atomic cursor, so a straggler shard
// never idles the rest of the pool. At most workers goroutines run,
// capped by the shard count; with one, every shard runs on the calling
// goroutine. fn is responsible for its own locking — each shard is
// visited by exactly one worker, so per-shard locks never nest and the
// fan-out is deadlock-free by construction.
//
// done (when non-nil) is polled before each shard is claimed, and a
// fired done stops workers from claiming further shards. Shards already
// being visited run to completion — cancellation is at shard
// granularity, so the caller's scratch is safe to recycle as soon as
// this returns. The return value reports whether every shard was
// visited (false: the batch was cut short and its results are
// incomplete).
func forEachShardDone(nShards int, starts []int32, workers int, done <-chan struct{}, fn func(shard int)) bool {
	if workers > nShards {
		workers = nShards
	}
	var cut atomic.Bool
	claim := func(s int) bool {
		if done != nil {
			select {
			case <-done:
				cut.Store(true)
				return false
			default:
			}
		}
		if starts[s+1] > starts[s] {
			fn(s)
		}
		return true
	}
	if workers <= 1 {
		for s := 0; s < nShards; s++ {
			if !claim(s) {
				return false
			}
		}
		return true
	}
	var cursor atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(cursor.Add(1)) - 1
				if s >= nShards {
					return
				}
				if !claim(s) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return !cut.Load()
}

// parallelRange splits [0, n) into GOMAXPROCS-bounded contiguous chunks
// and runs fn on each. Chunks are disjoint, so fn needs no locking for
// per-index state. Below minChunk items the call runs inline — the
// goroutine hand-off would cost more than it parallelizes.
func parallelRange(n, minChunk int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if limit := (n + minChunk - 1) / minChunk; workers > limit {
		workers = limit
	}
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
