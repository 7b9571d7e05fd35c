package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Directed persistence: until now the directed stores were the only
// models that could not survive a restart. The formats mirror the
// undirected ones — a single-store image ("LPSD") that the sharded
// container ("LPDH") concatenates per shard — so the WAL checkpointer
// can snapshot a directed predictor exactly like an undirected one.
//
// Single-store layout (all little-endian):
//
//	magic "LPSD" | version u32 | K u32 | seed u64 | hash u8 | degrees u8 |
//	reserved u8 ×2 | arcs u64 | vertexCount u64 | vertex records…
//
// Each vertex record: id u64 | outArrivals u64 | inArrivals u64 |
// K out-register values u64 | K out argmin ids u64 |
// K in-register values u64 | K in argmin ids u64.
//
// Vertices are written in ascending id order, so saving the same store
// twice produces byte-identical output.
//
// Version 2 is the tiered layout (see persist.go): uniform stores keep
// writing version 1, tiered stores insert the tier ladder between the
// flag bytes and the arc count, and each side's register spans are as
// wide as that side's tier — derivable from the persisted out/in
// arrival counters, which drive promotion independently per side.

const (
	directedMagic         = "LPSD"
	directedVersion       = 1
	directedVersionTiered = 2

	shardedDirectedMagic   = "LPDH"
	shardedDirectedVersion = 1
)

// Save writes the directed store's complete state to w.
func (s *DirectedStore) Save(w io.Writer) error {
	bw, buffered := w.(*bufio.Writer)
	if !buffered {
		bw = bufio.NewWriter(w)
	}
	if _, err := bw.WriteString(directedMagic); err != nil {
		return fmt.Errorf("core: save directed magic: %w", err)
	}
	writeU64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	version := uint32(directedVersion)
	if s.tiers != nil {
		version = directedVersionTiered
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], version)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(s.cfg.K))
	if _, err := bw.Write(hdr[:8]); err != nil {
		return fmt.Errorf("core: save directed header: %w", err)
	}
	if err := writeU64(s.cfg.Seed); err != nil {
		return fmt.Errorf("core: save directed seed: %w", err)
	}
	flags := []byte{byte(s.cfg.Hash), byte(s.cfg.Degrees), 0, 0}
	if _, err := bw.Write(flags); err != nil {
		return fmt.Errorf("core: save directed flags: %w", err)
	}
	if s.tiers != nil {
		if err := writeTierTable(bw, s.tiers); err != nil {
			return fmt.Errorf("core: save directed tier table: %w", err)
		}
	}
	if err := writeU64(uint64(s.arcs)); err != nil {
		return fmt.Errorf("core: save arc count: %w", err)
	}
	if err := writeU64(uint64(len(s.vertices))); err != nil {
		return fmt.Errorf("core: save vertex count: %w", err)
	}

	ids := make([]uint64, 0, len(s.vertices))
	for id := range s.vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := s.vertices[id]
		if err := writeU64(id); err != nil {
			return fmt.Errorf("core: save vertex %d: %w", id, err)
		}
		if err := writeU64(uint64(st.outArr)); err != nil {
			return fmt.Errorf("core: save vertex %d out-arrivals: %w", id, err)
		}
		if err := writeU64(uint64(st.inArr)); err != nil {
			return fmt.Errorf("core: save vertex %d in-arrivals: %w", id, err)
		}
		for _, side := range [2]struct {
			b    *regBank
			slot int32
		}{{&s.out, st.outSlot}, {&s.in, st.inSlot}} {
			for _, v := range side.b.regs(side.slot) {
				if err := writeU64(v); err != nil {
					return fmt.Errorf("core: save vertex %d registers: %w", id, err)
				}
			}
			for _, v := range side.b.argmins(side.slot) {
				if err := writeU64(v); err != nil {
					return fmt.Errorf("core: save vertex %d argmins: %w", id, err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: save directed flush: %w", err)
	}
	return nil
}

// LoadDirected reads a store saved by (*DirectedStore).Save. Hardened
// like LoadSketchStore: bounded counts, validated enum bytes, and
// errors naming the image byte offset of the fault.
func LoadDirected(r io.Reader) (*DirectedStore, error) {
	return loadDirected(newBinReader(r))
}

func loadDirected(rd *binReader) (*DirectedStore, error) {
	if err := rd.magic(directedMagic); err != nil {
		return nil, err
	}
	version, err := rd.versionIn(directedVersion, directedVersionTiered)
	if err != nil {
		return nil, err
	}
	k, err := rd.sketchK()
	if err != nil {
		return nil, err
	}
	seed, err := rd.u64()
	if err != nil {
		return nil, rd.fail("seed", err)
	}
	var flags [4]byte
	if err := rd.read(flags[:]); err != nil {
		return nil, rd.fail("flags", err)
	}
	cfg := Config{K: k, Seed: seed}
	if cfg.Hash, err = rd.hashKind(flags[0]); err != nil {
		return nil, err
	}
	if cfg.Degrees, err = rd.degreeMode(flags[1]); err != nil {
		return nil, err
	}
	if flags[2] != 0 || flags[3] != 0 {
		return nil, rd.corrupt("nonzero reserved flag bytes %#x %#x", flags[2], flags[3])
	}
	if version == directedVersionTiered {
		if cfg.Tiers, err = rd.tierTable(); err != nil {
			return nil, err
		}
	}
	s, err := NewDirectedStore(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: load directed config: %w", err)
	}
	arcs, err := rd.u64()
	if err != nil {
		return nil, rd.fail("arc count", err)
	}
	s.arcs = int64(arcs)
	vertexCount, err := rd.u64()
	if err != nil {
		return nil, rd.fail("vertex count", err)
	}
	// Each vertex record is 24 bytes of counters + 32 per register pair
	// (the smallest tier's width on tiered images).
	minK := k
	if s.tiers != nil {
		minK = s.tiers[0].K
	}
	if vertexCount > uint64(math.MaxInt64)/uint64(24+32*minK) {
		return nil, rd.corrupt("impossible vertex count %d for K=%d", vertexCount, k)
	}
	for i := uint64(0); i < vertexCount; i++ {
		id, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d id", i), err)
		}
		outArr, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d out-arrivals", id), err)
		}
		inArr, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d in-arrivals", id), err)
		}
		st := s.state(id)
		st.outArr, st.inArr = int64(outArr), int64(inArr)
		// Each side's tier is a pure function of its persisted arrival
		// counter, so promotion lands the vertex exactly where it was at
		// save time and the spans below match the record's widths.
		if s.tiers != nil {
			s.promoteOutIfDue(st)
			s.promoteInIfDue(st)
		}
		// Format predates the banks; fill the vertex's spans in place.
		if err := rd.span(&s.out, st.outSlot, id); err != nil {
			return nil, err
		}
		if err := rd.span(&s.in, st.inSlot, id); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Save writes the sharded directed store's complete state to w. Like
// (*Sharded).Save it takes every shard's read lock in index order, so
// the image is a consistent snapshot even while writers are queued.
func (s *ShardedDirected) Save(w io.Writer) error {
	for i := range s.mus {
		s.mus[i].RLock()
		defer s.mus[i].RUnlock()
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(shardedDirectedMagic); err != nil {
		return fmt.Errorf("core: save sharded directed magic: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], shardedDirectedVersion)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(s.shards)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(s.arcs.Load()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: save sharded directed header: %w", err)
	}
	if parallelPersist(len(s.shards)) {
		// Parallel per-shard encode, byte-identical to the sequential
		// writer (see persist_parallel.go).
		if err := saveShardsParallel(bw, len(s.shards),
			func(i int, w io.Writer) error { return s.shards[i].Save(w) },
			func(i int, err error) error { return fmt.Errorf("core: save directed shard %d: %w", i, err) },
		); err != nil {
			return err
		}
	} else {
		for i, shard := range s.shards {
			if err := shard.Save(bw); err != nil {
				return fmt.Errorf("core: save directed shard %d: %w", i, err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: save sharded directed flush: %w", err)
	}
	return nil
}

// LoadShardedDirected restores a store saved by (*ShardedDirected).Save.
func LoadShardedDirected(r io.Reader) (*ShardedDirected, error) {
	rd := newBinReader(r)
	if err := rd.magic(shardedDirectedMagic); err != nil {
		return nil, err
	}
	if err := rd.version(shardedDirectedVersion); err != nil {
		return nil, err
	}
	nShards, err := rd.u32()
	if err != nil {
		return nil, rd.fail("shard count", err)
	}
	if nShards == 0 || nShards > 1<<16 {
		return nil, rd.corrupt("implausible shard count %d", nShards)
	}
	arcs, err := rd.u64()
	if err != nil {
		return nil, rd.fail("arc count", err)
	}
	var shards []*DirectedStore
	wrapShard := func(i int, err error) error { return fmt.Errorf("core: load directed shard %d: %w", i, err) }
	if parallelPersist(int(nShards)) {
		shards, err = loadShardsParallel(rd, int(nShards), lpsdImageSize, loadDirected, wrapShard)
		if err != nil {
			return nil, err
		}
	} else {
		shards = make([]*DirectedStore, nShards)
		for i := range shards {
			store, err := loadDirected(rd)
			if err != nil {
				return nil, wrapShard(i, err)
			}
			shards[i] = store
		}
	}
	for i := 1; i < len(shards); i++ {
		if shards[i].cfg != shards[0].cfg {
			return nil, fmt.Errorf("core: directed shard %d config %+v differs from shard 0", i, shards[i].cfg)
		}
	}
	s := &ShardedDirected{
		shards:    shards,
		mus:       make([]sync.RWMutex, nShards),
		vertGauge: make([]atomic.Int64, nShards),
		memGauge:  make([]atomic.Int64, nShards),
	}
	s.arcs.Store(int64(arcs))
	for i := range shards {
		s.refreshGauges(i) // no concurrent access yet, so no lock needed
	}
	return s, nil
}
