package core

import (
	"bytes"
	"errors"
	"testing"
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
// cancel.go on both shard-set instantiations: a done that fired before
// an ingest call leaves the store untouched; a fired done cancels
// ScoreBatchCancel, and a nil done makes it ScoreBatch, bit for bit.
func TestCancellationContract(t *testing.T) {
	cfg := Config{K: 32, Seed: 17}
	t.Run("sharded", func(t *testing.T) {
		checkCancellation(t, func() *shardSet[*SketchStore] {
			return &must(NewSharded(cfg, 4)).shardSet
		})
	})
	t.Run("sharded-directed", func(t *testing.T) {
		checkCancellation(t, func() *shardSet[*DirectedStore] {
			return &must(NewShardedDirected(cfg, 4)).shardSet
		})
	})
}

func checkCancellation[T shardStore](t *testing.T, newSet func() *shardSet[T]) {
	edges, cands := batchEdges(23, 3000)
	first, second := edges[:1000], edges[1000:2000]
	fired := make(chan struct{})
	close(fired)

	s := newSet()
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
}
