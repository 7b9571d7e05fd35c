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
// cancel.go on all six stores: a done that fired before an ingest call
// leaves the store untouched; a fired done cancels ScoreBatch, and with
// a nil done ScoreBatch equals per-pair Estimate, bit for bit.
func TestCancellationContract(t *testing.T) {
	cfg := Config{K: 32, Seed: 17}
	for _, tc := range []struct {
		name  string
		store Store
	}{
		{"sharded", must(NewSharded(cfg, 4))},
		{"sharded-directed", must(NewShardedDirected(cfg, 4))},
		{"single", must(NewSketchStore(cfg))},
		{"directed", must(NewDirectedStore(cfg))},
		{"windowed", must(NewWindowed(cfg, 1<<40, 4))},
		{"dynamic", must(NewDynamicStore(cfg, 0))},
	} {
		t.Run(tc.name, func(t *testing.T) { checkCancellation(t, tc.store) })
	}
}

func checkCancellation(t *testing.T, s Store) {
	edges, cands := batchEdges(23, 3000)
	first, second := edges[:1000], edges[1000:2000]
	fired := make(chan struct{})
	close(fired)

	if err := s.IngestBatch(first, nil); err != nil {
		t.Fatal(err)
	}
	edgesBefore, imgBefore := s.NumEdges(), saveBytes(t, s.Save)

	if err := s.IngestBatch(second, fired); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ingest with a fired done: err = %v, want ErrCanceled", err)
	}
	if s.NumEdges() != edgesBefore || !bytes.Equal(saveBytes(t, s.Save), imgBefore) {
		t.Fatal("a canceled ingest changed the store")
	}

	for m := QueryJaccard; m <= QueryCosine; m++ {
		if _, err := s.ScoreBatch(m, 7, cands, nil, fired); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: ScoreBatch with a fired done: err = %v, want ErrCanceled", m, err)
		}
		got, err := s.ScoreBatch(m, 7, cands, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cands {
			want, err := s.Estimate(m, 7, v)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(got[i], want) {
				t.Fatalf("%v candidate %d: ScoreBatch(nil done) = %v, Estimate = %v", m, v, got[i], want)
			}
		}
	}
}
