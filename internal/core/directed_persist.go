package core

import (
	"fmt"
	"io"
)

// Directed persistence: until now the directed stores were the only
// models that could not survive a restart. The formats mirror the
// undirected ones — a single-store image ("LPSD") that the sharded
// container ("LPDH") concatenates per shard — so the WAL checkpointer
// can snapshot a directed predictor exactly like an undirected one.
//
// The single-store image's header and records are laid out in
// persist.go.

const directedMagic = "LPSD"

// Save writes the directed store's complete state to w.
func (s *DirectedStore) Save(w io.Writer) error {
	bw := newBinWriter(w)
	lpsdFormat.writeHeader(bw, storeHeader{cfg: s.cfg, edges: s.arcs, count: uint64(len(s.vertices))})
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
	return load(r, loadDirected)
}

func loadDirected(rd *binReader) (*DirectedStore, error) {
	start := rd.off
	h, err := lpsdFormat.readHeader(rd)
	if err != nil {
		return nil, err
	}
	s, err := NewDirectedStore(h.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: load directed config: %w", err)
	}
	s.arcs = h.edges
	n, slots := lpsdFormat.reservation(rd, start, h)
	s.vertices = make(map[uint64]*dirVertexState, n)
	s.out.reserve(slots[0])
	s.in.reserve(slots[1])
	var id uint64
	for i := uint64(0); i < h.count; i++ {
		if id, err = rd.vertexID(i, id); err != nil {
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
		// Each side's tier is a pure function of its persisted arrival
		// counter, so the vertex takes its slots straight where they were
		// at save time and the spans below match the record's widths.
		st := s.newState(id, tierFor(s.tiers, int64(outArr)), tierFor(s.tiers, int64(inArr)))
		st.outArr, st.inArr = int64(outArr), int64(inArr)
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
