package core

import (
	"fmt"
	"io"
	"math"
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
)

// Save writes the directed store's complete state to w.
func (s *DirectedStore) Save(w io.Writer) error {
	bw := newBinWriter(w)
	bw.str(directedMagic)
	if s.tiers != nil {
		bw.u32(directedVersionTiered)
	} else {
		bw.u32(directedVersion)
	}
	bw.u32(uint32(s.cfg.K))
	bw.u64(s.cfg.Seed)
	bw.u8(byte(s.cfg.Hash))
	bw.u8(byte(s.cfg.Degrees))
	bw.u8(0)
	bw.u8(0)
	if s.tiers != nil {
		writeTierTable(bw, s.tiers)
	}
	bw.u64(uint64(s.arcs))
	bw.u64(uint64(len(s.vertices)))
	for _, id := range sortedIDs(s.vertices) {
		st := s.vertices[id]
		bw.u64(id)
		bw.u64(uint64(st.outArr))
		bw.u64(uint64(st.inArr))
		bw.u64s(s.out.regs(st.outSlot))
		bw.u64s(s.out.argmins(st.outSlot))
		bw.u64s(s.in.regs(st.inSlot))
		bw.u64s(s.in.argmins(st.inSlot))
	}
	if err := bw.flush(); err != nil {
		return fmt.Errorf("core: save directed: %w", err)
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
	start := rd.off
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
	n, slots := lpsdFormat.reservation(rd, start, vertexCount, s.tiers != nil, 24+32*minK)
	s.vertices = make(map[uint64]*dirVertexState, n)
	s.out.reserve(slots[0])
	s.in.reserve(slots[1])
	for i := uint64(0); i < vertexCount; i++ {
		id, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d id", i), err)
		}
		if s.vertices[id] != nil { // see loadSketchStore
			return nil, rd.corrupt("vertex %d appears twice", id)
		}
		if err := rd.placed(id); err != nil {
			return nil, err
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
