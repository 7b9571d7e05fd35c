package core

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Sketch persistence: a stream processor that maintains sketches for
// days cannot afford to lose them on restart. Save writes the complete
// store state — configuration, degree counters, registers, and biased
// sketches — in a versioned binary format; LoadSketchStore restores a
// store that answers every query identically to the saved one.
//
// Layout (all little-endian):
//
//	magic "LPSK" | version u32 | K u32 | seed u64 | hash u8 | degrees u8 |
//	biased u8 | triangles-tracked u8 | edges i64 | triangles f64 |
//	vertexCount i64 | vertex records…
//
// Each vertex record: id u64 | arrivals i64 | triangles f64 |
// K register values u64 | K argmin ids u64 | (if biased) entry count
// u32 + entries (id u64, rank f64).
//
// Vertices are written in ascending id order, so saving the same store
// twice produces byte-identical output. Each vertex appears once; the
// loaders reject an image that repeats one.
//
// Version 2 is the tiered layout: uniform stores keep writing version 1
// (byte-identical to every pre-tier image), tiered stores bump the
// version and insert the tier ladder (count u32, then K u32 + PromoteAt
// u64 per tier) between the flag bytes and the edge count. Vertex
// records are unchanged except that each vertex's register spans are as
// wide as its tier — derivable from its persisted arrival count alone,
// so no per-vertex tier byte is stored.

const (
	persistMagic         = "LPSK"
	persistVersion       = 1
	persistVersionTiered = 2
)

// writeTierTable writes a v2 header's tier ladder: tier count u32,
// then (K u32, PromoteAt u64) per tier.
func writeTierTable(bw binWriter, tiers []Tier) {
	bw.u32(uint32(len(tiers)))
	for _, t := range tiers {
		bw.u32(uint32(t.K))
		bw.u64(uint64(t.PromoteAt))
	}
}

// flagByte encodes a boolean flag byte.
func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// sortedIDs returns the keys of a vertex map in ascending order: the
// order every Save writes vertices in.
func sortedIDs[V any](vertices map[uint64]V) []uint64 {
	ids := make([]uint64, 0, len(vertices))
	for id := range vertices {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Save writes the store's complete state to w.
func (s *SketchStore) Save(w io.Writer) error {
	bw := newBinWriter(w)
	bw.str(persistMagic)
	if s.tiers != nil {
		bw.u32(persistVersionTiered)
	} else {
		bw.u32(persistVersion)
	}
	bw.u32(uint32(s.cfg.K))
	bw.u64(s.cfg.Seed)
	bw.u8(byte(s.cfg.Hash))
	bw.u8(byte(s.cfg.Degrees))
	bw.u8(flagByte(s.cfg.EnableBiased))
	bw.u8(flagByte(s.cfg.TrackTriangles))
	if s.tiers != nil {
		writeTierTable(bw, s.tiers)
	}
	bw.u64(uint64(s.edges))
	bw.u64(math.Float64bits(s.triangles))
	bw.u64(uint64(len(s.vertices)))
	for _, id := range sortedIDs(s.vertices) {
		st := s.vertices[id]
		bw.u64(id)
		bw.u64(uint64(st.arrivals))
		bw.u64(math.Float64bits(st.triangles))
		bw.u64s(s.bank.regs(st.slot))
		bw.u64s(s.bank.argmins(st.slot))
		if s.cfg.EnableBiased {
			bw.u32(uint32(len(st.biased.entries)))
			for _, e := range st.biased.entries {
				bw.u64(e.id)
				bw.u64(math.Float64bits(e.rank))
			}
		}
	}
	if err := bw.flush(); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// LoadSketchStore reads a store saved by Save. The restored store
// answers every estimator query identically to the original and can
// continue consuming the stream where the original left off.
//
// The loader is hardened against corrupt input: counts are bounded
// before any allocation they size, enum and flag bytes are checked
// against their legal ranges, and errors name the byte offset where
// decoding failed. An existing *bufio.Reader is reused rather than
// re-wrapped, so the sharded formats can concatenate several images in
// one stream.
func LoadSketchStore(r io.Reader) (*SketchStore, error) {
	return loadSketchStore(newBinReader(r))
}

func loadSketchStore(rd *binReader) (*SketchStore, error) {
	start := rd.off
	if err := rd.magic(persistMagic); err != nil {
		return nil, err
	}
	version, err := rd.versionIn(persistVersion, persistVersionTiered)
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
	if cfg.EnableBiased, err = rd.boolByte("biased", flags[2]); err != nil {
		return nil, err
	}
	if cfg.TrackTriangles, err = rd.boolByte("triangles", flags[3]); err != nil {
		return nil, err
	}
	if version == persistVersionTiered {
		if cfg.Tiers, err = rd.tierTable(); err != nil {
			return nil, err
		}
	}
	s, err := NewSketchStore(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: load config: %w", err)
	}
	edges, err := rd.u64()
	if err != nil {
		return nil, rd.fail("edge count", err)
	}
	s.edges = int64(edges)
	triBits, err := rd.u64()
	if err != nil {
		return nil, rd.fail("triangle accumulator", err)
	}
	s.triangles = math.Float64frombits(triBits)
	vertexCount, err := rd.u64()
	if err != nil {
		return nil, rd.fail("vertex count", err)
	}
	// Each vertex record is at least 24 bytes + 16 per register (the
	// smallest tier's width on tiered images), so a count the input
	// cannot possibly back is rejected up front instead of allocating
	// state for it vertex by vertex until EOF.
	minK := k
	if s.tiers != nil {
		minK = s.tiers[0].K
	}
	if vertexCount > uint64(math.MaxInt64)/uint64(24+16*minK) {
		return nil, rd.corrupt("impossible vertex count %d for K=%d", vertexCount, k)
	}
	n, slots := lpskFormat.reservation(rd, start, vertexCount, s.tiers != nil, 24+16*minK)
	s.vertices = make(map[uint64]*vertexState, n)
	s.bank.reserve(slots[0])
	for i := uint64(0); i < vertexCount; i++ {
		id, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d id", i), err)
		}
		// A second record for one vertex would be decoded at the width
		// of the tier the first one reached, not the width its own
		// arrival count gives, so images are sized (storeFormat.layout)
		// on the rule that every vertex appears once — Save's output
		// always does.
		if s.vertices[id] != nil {
			return nil, rd.corrupt("vertex %d appears twice", id)
		}
		arrivals, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d arrivals", id), err)
		}
		st := s.state(id)
		st.arrivals = int64(arrivals)
		vertexTri, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d triangles", id), err)
		}
		st.triangles = math.Float64frombits(vertexTri)
		// Promotion is a pure function of the arrival count, so the
		// loaded vertex lands in the same tier it occupied at save time
		// and its spans below have exactly the record's width.
		if s.tiers != nil {
			s.promoteIfDue(st)
		}
		// The on-disk format predates the register banks; conversion on
		// load is just filling the vertex's bank spans in place.
		if err := rd.span(&s.bank, st.slot, id); err != nil {
			return nil, err
		}
		if cfg.EnableBiased {
			n, err := rd.u32()
			if err != nil {
				return nil, rd.fail(fmt.Sprintf("vertex %d biased count", id), err)
			}
			if int(n) > cfg.K {
				return nil, rd.corrupt("vertex %d biased sketch has %d entries, max %d", id, n, cfg.K)
			}
			st.biased.entries = st.biased.entries[:0]
			for j := uint32(0); j < n; j++ {
				eid, err := rd.u64()
				if err != nil {
					return nil, rd.fail(fmt.Sprintf("vertex %d biased ids", id), err)
				}
				bits, err := rd.u64()
				if err != nil {
					return nil, rd.fail(fmt.Sprintf("vertex %d biased ranks", id), err)
				}
				st.biased.entries = append(st.biased.entries, biasedEntry{id: eid, rank: math.Float64frombits(bits)})
			}
		}
	}
	return s, nil
}
