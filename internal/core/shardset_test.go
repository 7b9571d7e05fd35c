package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"linkpred/internal/stream"
)

// TestShardCountBound: a sharded store can only be built with a shard
// count its own image can declare, so a checkpoint of any constructible
// store reloads. Just past the bound both constructors refuse; at the
// bound an image round-trips (the bound, Save and the loader are the
// shard set's, shared by both types).
func TestShardCountBound(t *testing.T) {
	cfg := Config{K: 4, Seed: 3}
	if _, err := NewSharded(cfg, maxShards+1); err == nil {
		t.Errorf("NewSharded accepted %d shards; its image could not load", maxShards+1)
	}
	if _, err := NewShardedDirected(cfg, maxShards+1); err == nil {
		t.Errorf("NewShardedDirected accepted %d shards; its image could not load", maxShards+1)
	}
	if testing.Short() {
		t.Skip("the round trip at the bound builds 2^16 shards")
	}
	s := must(NewSharded(cfg, maxShards))
	if _, err := LoadSharded(bytes.NewReader(saveBytes(t, s.Save))); err != nil {
		t.Errorf("%d-shard image does not reload: %v", maxShards, err)
	}
}

// TestCancellationContract pins the cooperative-cancellation contract of
// cancel.go on both shard-set instantiations, with and without the
// ingest pipeline: a done that fired before an ingest call leaves the
// store untouched; a done that fires while the producer spins on a full
// pipeline ring withdraws only that batch; a fired done cancels
// ScoreBatchCancel, and a nil done makes it ScoreBatch, bit for bit.
func TestCancellationContract(t *testing.T) {
	cfg := Config{K: 32, Seed: 17}
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded/pipeline=%v", pipelined), func(t *testing.T) {
			checkCancellation(t, pipelined, func() *shardSet[*SketchStore] {
				return &must(NewSharded(cfg, 4)).shardSet
			})
		})
		t.Run(fmt.Sprintf("sharded-directed/pipeline=%v", pipelined), func(t *testing.T) {
			checkCancellation(t, pipelined, func() *shardSet[*DirectedStore] {
				return &must(NewShardedDirected(cfg, 4)).shardSet
			})
		})
	}
}

func checkCancellation[T shardStore](t *testing.T, pipelined bool, newSet func() *shardSet[T]) {
	edges, cands := batchEdges(23, 3000)
	first, second, third := edges[:1000], edges[1000:2000], edges[2000:]
	fired := make(chan struct{})
	close(fired)

	s := newSet()
	if pipelined {
		// One forced owner with the smallest ring (a requested size of 1
		// is rounded up to 2; see newPipeline): the owner serves every
		// shard, so holding all shard locks stalls it deterministically.
		// Failures leave the pipeline running: a lost batch would hang
		// StopPipeline.
		if !s.StartPipeline(1, 1) {
			t.Fatal("forced pipeline did not start")
		}
	}
	s.IngestBatch(first)
	edgesBefore, imgBefore := s.NumEdges(), saveBytes(t, s.Save)

	if err := s.IngestBatchCancel(second, fired); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ingest with a fired done: err = %v, want ErrCanceled", err)
	}
	if s.NumEdges() != edgesBefore || !bytes.Equal(saveBytes(t, s.Save), imgBefore) {
		t.Fatal("a canceled ingest changed the store")
	}

	for m := QueryJaccard; m <= QueryCosine; m++ {
		if _, err := s.ScoreBatchCancel(m, 7, cands, nil, fired); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: ScoreBatchCancel with a fired done: err = %v, want ErrCanceled", m, err)
		}
		got, err := s.ScoreBatchCancel(m, 7, cands, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.ScoreBatch(m, 7, cands, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%v candidate %d: ScoreBatchCancel(nil done) = %v, ScoreBatch = %v", m, cands[i], got[i], want[i])
			}
		}
	}
	if !pipelined {
		return
	}

	// Fill the pipeline: with every shard lock held, the owner can hold
	// at most one batch (blocked applying it) and the ring at most its
	// capacity, so capacity+1 async batches leave the ring full on
	// return.
	for i := range s.mus {
		s.mus[i].Lock()
	}
	st, _ := s.PipelineStats()
	parts := splitBatch(second, st.RingCapacity+1)
	for _, b := range parts {
		s.IngestBatchAsync(b)
	}
	st, _ = s.PipelineStats()
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- s.IngestBatchCancel(third, done) }()
	spun := false // the producer spins on the full ring
	for end := time.Now().Add(10 * time.Second); !spun && time.Now().Before(end); runtime.Gosched() {
		cur, _ := s.PipelineStats()
		spun = cur.Stalls != st.Stalls
	}
	close(done)
	var err error
	select {
	case err = <-errc:
	case <-time.After(10 * time.Second):
		err = errors.New("still publishing 10s after done fired")
	}
	for i := range s.mus {
		s.mus[i].Unlock()
	}
	if !spun {
		t.Fatal("the producer never spun on the full ring")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("ingest canceled on a full ring: err = %v, want ErrCanceled", err)
	}
	s.FlushIngest()

	ref := newSet()
	for _, b := range append([][]stream.Edge{first}, parts...) {
		ref.IngestBatch(b)
	}
	if s.NumEdges() != ref.NumEdges() {
		t.Fatalf("NumEdges = %d, reference fed the earlier batches = %d", s.NumEdges(), ref.NumEdges())
	}
	if !bytes.Equal(saveBytes(t, s.Save), saveBytes(t, ref.Save)) {
		t.Fatal("store differs from a reference fed only the batches before the canceled one")
	}
	s.StopPipeline()
}

// splitBatch cuts edges into n consecutive non-empty batches.
func splitBatch(edges []stream.Edge, n int) [][]stream.Edge {
	parts := make([][]stream.Edge, n)
	for i := range parts {
		parts[i] = edges[i*len(edges)/n : (i+1)*len(edges)/n]
	}
	return parts
}
