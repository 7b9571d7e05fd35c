package core

import (
	"fmt"
	"io"
	"math"
)

// Dynamic-store persistence. Layout (all little-endian):
//
//	magic "LPDY" | version u32 | K u32 | depth u32 | seed u64 |
//	hash u8 | degrees u8 | reserved u8 ×2 | edges i64 |
//	vertexCount u64 | vertex records…
//
// Each vertex record: id u64 | arrivals i64 | K register records.
// Each register record: lost u32 | flags u8 (bit 0 = degraded) |
// count u8 | count × (hash u64, id u64, refs u32).
//
// Vertices are written in ascending id order and register buffers are
// stored in their in-memory sorted order, so saving the same store
// twice produces byte-identical output — the property the CI
// crash-replay smoke leans on when it diffs checkpoints taken before a
// kill and after recovery. The store-level degraded count is not
// persisted; the loader recomputes it from the per-register flags.
//
// Version 2 is the tiered layout: uniform stores keep writing version 1,
// tiered stores insert the tier ladder (see persist.go) between the flag
// bytes and the edge count and add an insert counter u64 to each vertex
// record after the arrivals field. A vertex's register count is the tier
// its monotone insert counter has earned (deletes never demote), so the
// loader re-derives each record's width from the counter alone.

const (
	dynamicMagic         = "LPDY"
	dynamicVersion       = 1
	dynamicVersionTiered = 2
)

// Save writes the store's complete state to w.
func (s *DynamicStore) Save(w io.Writer) error {
	bw := newBinWriter(w)
	bw.str(dynamicMagic)
	if s.tiers != nil {
		bw.u32(dynamicVersionTiered)
	} else {
		bw.u32(dynamicVersion)
	}
	bw.u32(uint32(s.cfg.K))
	bw.u32(uint32(s.depth))
	bw.u64(s.cfg.Seed)
	bw.u8(byte(s.cfg.Hash))
	bw.u8(byte(s.cfg.Degrees))
	bw.u8(0)
	bw.u8(0)
	if s.tiers != nil {
		writeTierTable(bw, s.tiers)
	}
	bw.u64(uint64(s.edges))
	bw.u64(uint64(len(s.vertices)))
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
	return loadDynamicStore(newBinReader(r))
}

func loadDynamicStore(rd *binReader) (*DynamicStore, error) {
	if err := rd.magic(dynamicMagic); err != nil {
		return nil, err
	}
	version, err := rd.versionIn(dynamicVersion, dynamicVersionTiered)
	if err != nil {
		return nil, err
	}
	k, err := rd.sketchK()
	if err != nil {
		return nil, err
	}
	depth32, err := rd.u32()
	if err != nil {
		return nil, rd.fail("depth", err)
	}
	if depth32 == 0 || depth32 > maxDynDepth {
		return nil, rd.corrupt("impossible recovery depth %d (max %d)", depth32, maxDynDepth)
	}
	depth := int(depth32)
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
		return nil, rd.corrupt("reserved flag bytes %#x %#x, want 0", flags[2], flags[3])
	}
	if version == dynamicVersionTiered {
		if cfg.Tiers, err = rd.tierTable(); err != nil {
			return nil, err
		}
	}
	s, err := NewDynamicStore(cfg, depth)
	if err != nil {
		return nil, fmt.Errorf("core: load config: %w", err)
	}
	edges, err := rd.u64()
	if err != nil {
		return nil, rd.fail("edge count", err)
	}
	s.edges = int64(edges)
	vertexCount, err := rd.u64()
	if err != nil {
		return nil, rd.fail("vertex count", err)
	}
	// Each vertex record is at least 16 bytes plus 6 bytes per register
	// (the smallest tier's width on tiered images), so a count the input
	// cannot possibly back is rejected up front.
	minK := k
	if s.tiers != nil {
		minK = s.tiers[0].K
	}
	if vertexCount > uint64(math.MaxInt64)/uint64(16+6*minK) {
		return nil, rd.corrupt("impossible vertex count %d for K=%d", vertexCount, k)
	}
	s.vertices = make(map[uint64]*dynVertexState, rd.backable(vertexCount, 16+6*minK))
	// A vertex's buffers hold K·depth entries however few the record
	// carries, so each record is decoded into these scratch buffers first
	// and the vertex allocated only once its bytes have been read: a
	// forged record cannot make the loader allocate ahead of its input.
	var metas []dynRegMeta
	var ents []dynEntry
	for i := uint64(0); i < vertexCount; i++ {
		id, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d id", i), err)
		}
		arrivals, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d arrivals", id), err)
		}
		var inserts uint64
		k := s.cfg.K
		if version == dynamicVersionTiered {
			if inserts, err = rd.u64(); err != nil {
				return nil, rd.fail(fmt.Sprintf("vertex %d inserts", id), err)
			}
			// The record's register count follows from the monotone
			// insert counter (and never shrinks a vertex already loaded).
			k = s.tiers[tierFor(s.tiers, int64(inserts))].K
			if st := s.vertices[id]; st != nil && st.k() > k {
				k = st.k()
			}
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
			if count > depth {
				return nil, rd.corrupt("vertex %d register %d holds %d entries, max depth %d", id, r, count, depth)
			}
			metas = append(metas, dynRegMeta{lost: lost, bad: bad, n: uint16(count)})
			var prev dynEntry
			for j := 0; j < count; j++ {
				h, err := rd.u64()
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
				if j > 0 && (h < prev.hash || (h == prev.hash && eid <= prev.id)) {
					return nil, rd.corrupt("vertex %d register %d entries out of order", id, r)
				}
				prev = dynEntry{hash: h, id: eid, refs: refs}
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
			next += copy(st.ents[r*depth:], ents[next:next+int(m.n)])
		}
	}
	return s, nil
}
