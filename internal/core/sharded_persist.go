package core

import (
	"fmt"
	"io"
)

// Sharded persistence: a shard set serialises as a container header
// plus the per-shard images, reusing the single-store formats
// (persist.go, directed_persist.go). The two containers differ only in
// their magic — "LPSH" over SketchStore images, "LPDH" over
// DirectedStore images:
//
//	magic | version u32 | shardCount u32 | edges u64 | shard images…
//
// (edges counts arcs in an LPDH image). Save takes every shard's read
// lock in index order, so it produces a consistent snapshot even while
// writers are queued (writers block for the duration — checkpoint
// during a quiet period or accept the pause).

const (
	shardedMagic         = "LPSH"
	shardedDirectedMagic = "LPDH"
	shardedVersion       = 1 // of both containers
)

// Save writes the store's complete state to w.
func (s *shardSet[T]) Save(w io.Writer) error {
	for i := range s.mus {
		s.mus[i].RLock()
		defer s.mus[i].RUnlock()
	}
	bw := newBinWriter(w)
	bw.str(s.kind.magic)
	bw.u32(shardedVersion)
	bw.u32(uint32(len(s.shards)))
	bw.u64(uint64(s.edges.Load()))
	for i, shard := range s.shards {
		if err := shard.Save(bw.bw); err != nil {
			return fmt.Errorf("core: save %s shard %d: %w", s.kind.name, i, err)
		}
	}
	if err := bw.flush(); err != nil {
		return fmt.Errorf("core: save %s: %w", s.kind.name, err)
	}
	return nil
}

// load restores into s a store of kind saved by Save. Corrupt images
// are rejected with errors naming the byte offset of the fault
// (offsets count from the start of the container image, across the
// concatenated shard images).
func (s *shardSet[T]) load(rd *binReader, kind *shardKind[T]) error {
	if err := rd.magic(kind.magic); err != nil {
		return err
	}
	if err := rd.version(shardedVersion); err != nil {
		return err
	}
	nShards, err := rd.u32()
	if err != nil {
		return rd.fail("shard count", err)
	}
	if nShards == 0 || nShards > maxShards {
		return rd.corrupt("implausible shard count %d", nShards)
	}
	edges, err := rd.u64()
	if err != nil {
		return rd.fail("edge count", err)
	}
	shards, err := loadShards(rd, int(nShards), kind.format, kind.decode,
		func(i int, err error) error { return fmt.Errorf("core: load %s shard %d: %w", kind.name, i, err) })
	if err != nil {
		return err
	}
	cfg := shards[0].Config()
	for i := 1; i < len(shards); i++ {
		if c := shards[i].Config(); c != cfg {
			return fmt.Errorf("core: %s shard %d config %+v differs from shard 0", kind.name, i, c)
		}
	}
	s.adopt(kind, shards)
	s.edges.Store(int64(edges))
	for i := range shards {
		s.refreshGauges(i) // no concurrent access yet, so no lock needed
	}
	return nil
}

// LoadSharded restores a store saved by (*Sharded).Save. The restored
// store answers every query identically and accepts further ingest.
func LoadSharded(r io.Reader) (*Sharded, error) { return loadSharded(newBinReader(r)) }

func loadSharded(rd *binReader) (*Sharded, error) {
	s := new(Sharded)
	if err := s.load(rd, shardedKind); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadShardedDirected restores a store saved by
// (*ShardedDirected).Save, with the guarantees of LoadSharded.
func LoadShardedDirected(r io.Reader) (*ShardedDirected, error) {
	return loadShardedDirected(newBinReader(r))
}

func loadShardedDirected(rd *binReader) (*ShardedDirected, error) {
	s := new(ShardedDirected)
	if err := s.load(rd, shardedDirectedKind); err != nil {
		return nil, err
	}
	return s, nil
}
