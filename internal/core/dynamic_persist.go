package core

import (
	"fmt"
	"io"
)

// Dynamic-store persistence: the LPDY image, whose header and records
// are laid out in persist.go. Register buffers are stored in their
// in-memory sorted order, so saving the same store twice produces
// byte-identical output — the property the CI crash-replay smoke leans
// on when it diffs checkpoints taken before a kill and after recovery.
// The store-level degraded count is not persisted; the loader
// recomputes it from the per-register flags. On tiered (version 2)
// images a vertex's register count is the tier its monotone insert
// counter has earned (deletes never demote), so the loader re-derives
// each record's width from the counter alone.

const dynamicMagic = "LPDY"

// Save writes the store's complete state to w.
func (s *DynamicStore) Save(w io.Writer) error {
	bw := newBinWriter(w)
	lpdyFormat.writeHeader(bw, storeHeader{cfg: s.cfg, depth: s.depth, edges: s.edges,
		count: uint64(len(s.vertices))})
	for _, id := range sortedIDs(s.vertices) {
		st := s.vertices[id]
		bw.u64(id)
		bw.u64(uint64(st.arrivals))
		if s.tiers != nil {
			bw.u64(uint64(st.inserts))
		}
		for i := 0; i < st.k(); i++ {
			m := st.meta[i]
			bw.u32(m.lost)
			bw.u8(flagByte(m.bad))
			bw.u8(byte(m.n))
			for _, e := range st.ents[i*s.depth : i*s.depth+int(m.n)] {
				bw.u64(e.hash)
				bw.u64(e.id)
				bw.u32(e.refs)
			}
		}
	}
	if err := bw.flush(); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// LoadDynamicStore reads a store saved by Save. The restored store
// answers every query identically to the saved one and can continue
// consuming inserts and deletes where the original left off.
//
// The loader is hardened like every loader in this package: counts are
// bounded before any allocation they size, enum/flag bytes are checked
// against their legal ranges, register buffers must arrive in strictly
// ascending (hash, id) order with nonzero refs, and errors name the
// byte offset where decoding failed.
func LoadDynamicStore(r io.Reader) (*DynamicStore, error) {
	return load(r, loadDynamicStore)
}

func loadDynamicStore(rd *binReader) (*DynamicStore, error) {
	h, err := lpdyFormat.readHeader(rd)
	if err != nil {
		return nil, err
	}
	s, err := NewDynamicStore(h.cfg, h.depth)
	if err != nil {
		return nil, fmt.Errorf("core: load config: %w", err)
	}
	s.edges = h.edges
	s.vertices = make(map[uint64]*dynVertexState, rd.backable(h.count, lpdyFormat.minRecord(h.cfg)))
	// A vertex's buffers hold K·depth entries however few the record
	// carries, so each record is decoded into these scratch buffers first
	// and the vertex allocated only once its bytes have been read: a
	// forged record cannot make the loader allocate ahead of its input.
	var metas []dynRegMeta
	var ents []dynEntry
	var id uint64
	for i := uint64(0); i < h.count; i++ {
		if id, err = rd.vertexID(i, id); err != nil {
			return nil, err
		}
		arrivals, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d arrivals", id), err)
		}
		var inserts uint64
		k := s.cfg.K
		if s.tiers != nil {
			if inserts, err = rd.u64(); err != nil {
				return nil, rd.fail(fmt.Sprintf("vertex %d inserts", id), err)
			}
			// The record's register count follows from the monotone
			// insert counter.
			k = s.tiers[tierFor(s.tiers, int64(inserts))].K
		}
		metas, ents = metas[:0], ents[:0]
		for r := 0; r < k; r++ {
			lost, err := rd.u32()
			if err != nil {
				return nil, rd.fail(fmt.Sprintf("vertex %d register %d lost", id, r), err)
			}
			var hdr [2]byte
			if err := rd.read(hdr[:]); err != nil {
				return nil, rd.fail(fmt.Sprintf("vertex %d register %d header", id, r), err)
			}
			bad, err := rd.boolByte("degraded", hdr[0])
			if err != nil {
				return nil, err
			}
			count := int(hdr[1])
			if count > s.depth {
				return nil, rd.corrupt("vertex %d register %d holds %d entries, max depth %d", id, r, count, s.depth)
			}
			metas = append(metas, dynRegMeta{lost: lost, bad: bad, n: uint16(count)})
			var prev dynEntry
			for j := 0; j < count; j++ {
				hash, err := rd.u64()
				if err != nil {
					return nil, rd.fail(fmt.Sprintf("vertex %d register %d hashes", id, r), err)
				}
				eid, err := rd.u64()
				if err != nil {
					return nil, rd.fail(fmt.Sprintf("vertex %d register %d ids", id, r), err)
				}
				refs, err := rd.u32()
				if err != nil {
					return nil, rd.fail(fmt.Sprintf("vertex %d register %d refs", id, r), err)
				}
				if refs == 0 {
					return nil, rd.corrupt("vertex %d register %d entry %d has zero refs", id, r, j)
				}
				if j > 0 && (hash < prev.hash || (hash == prev.hash && eid <= prev.id)) {
					return nil, rd.corrupt("vertex %d register %d entries out of order", id, r)
				}
				prev = dynEntry{hash: hash, id: eid, refs: refs}
				ents = append(ents, prev)
			}
		}
		st := s.state(id)
		st.arrivals = int64(arrivals)
		if s.tiers != nil {
			// The image's meta fields overwrite whatever the promotion
			// synthesises for the new registers.
			st.inserts = int64(inserts)
			s.promoteDynIfDue(st)
		}
		next := 0
		for r, m := range metas {
			st.meta[r] = m
			if m.bad {
				s.degradedRegs++
			}
			next += copy(st.ents[r*s.depth:], ents[next:next+int(m.n)])
		}
	}
	return s, nil
}
