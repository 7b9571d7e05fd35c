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
// The three single-store images — LPSK (SketchStore), LPSD
// (DirectedStore) and LPDY (DynamicStore) — share one header, which
// storeFormat writes and reads (all little-endian):
//
//	magic | version u32 | K u32 | depth u32 (LPDY only) | seed u64 |
//	hash u8 | degrees u8 | biased u8 | triangles u8 | tier ladder (v2) |
//	edges u64 | triangles f64 (LPSK only) | vertexCount u64 | records…
//
// The biased and triangles flags are LPSK's; the other formats write
// them as zero. LPSD's edge count counts arcs. Version 1 is the uniform
// layout, byte-identical to every pre-tier image. Version 2 is the
// tiered one: the tier ladder (count u32, then K u32 + PromoteAt u64
// per tier) follows the flag bytes, and each record's register spans
// are as wide as the tier its monotone counter has earned, so no
// per-vertex tier byte is stored. The records:
//
//	LPSK: id u64 | arrivals i64 | triangles f64 | K register values u64 |
//	      K argmin ids u64 | (biased) entry count u32 + (id u64, rank f64)…
//	LPSD: id u64 | outArrivals u64 | inArrivals u64 | out values |
//	      out argmins | in values | in argmins (K u64 each)
//	LPDY: id u64 | arrivals i64 | inserts u64 (v2) | K register records,
//	      each lost u32 | flags u8 (bit 0 = degraded) | count u8 |
//	      count × (hash u64, id u64, refs u32)
//
// Vertices are written in strictly ascending id order, so saving the
// same store twice produces byte-identical output, and the loaders
// accept only what Save writes: ids that do not ascend, nonzero
// reserved bytes, and (through LoadAny) bytes after the image are
// rejected. An accepted image therefore re-saves to exactly its own
// bytes.

const (
	persistMagic         = "LPSK"
	persistVersion       = 1 // uniform images of all three formats
	persistVersionTiered = 2 // tiered images
)

// storeFormat describes one single-store image format.
type storeFormat struct {
	magic string
	depth bool // LPDY: a recovery depth follows K
	// LPSK: flag bytes 2 and 3 are the biased and triangles flags, not
	// reserved, and the triangle accumulator follows the edge count.
	lpsk bool
	// A record is at least head bytes plus perReg per register of the
	// narrowest tier. LPSK and LPSD records hold banks register banks,
	// bank b's arrival counter at record byte 8+8b, then a values and
	// an argmin span per bank.
	head, perReg, banks int
}

var (
	lpskFormat = &storeFormat{magic: persistMagic, lpsk: true, head: 24, perReg: 16, banks: 1}
	lpsdFormat = &storeFormat{magic: directedMagic, head: 24, perReg: 32, banks: 2}
	lpdyFormat = &storeFormat{magic: dynamicMagic, depth: true, head: 16, perReg: 6}
)

// storeHeader is a single-store image's header.
type storeHeader struct {
	cfg       Config
	depth     int     // LPDY's recovery depth
	edges     int64   // arcs on LPSD
	triangles float64 // LPSK's triangle accumulator
	count     uint64  // vertex records that follow
}

// minRecord is the fewest bytes a vertex record of an image with
// config cfg takes.
func (f *storeFormat) minRecord(cfg Config) int {
	k := cfg.K
	if cfg.tiered() {
		k = cfg.Tiers[0].K
	}
	return f.head + f.perReg*k
}

// writeHeader writes h as an image header of format f.
func (f *storeFormat) writeHeader(bw binWriter, h storeHeader) {
	tiers := h.cfg.activeTiers()
	bw.str(f.magic)
	if tiers != nil {
		bw.u32(persistVersionTiered)
	} else {
		bw.u32(persistVersion)
	}
	bw.u32(uint32(h.cfg.K))
	if f.depth {
		bw.u32(uint32(h.depth))
	}
	bw.u64(h.cfg.Seed)
	bw.u8(byte(h.cfg.Hash))
	bw.u8(byte(h.cfg.Degrees))
	bw.u8(flagByte(h.cfg.EnableBiased))
	bw.u8(flagByte(h.cfg.TrackTriangles))
	if tiers != nil {
		bw.u32(uint32(len(tiers)))
		for _, t := range tiers {
			bw.u32(uint32(t.K))
			bw.u64(uint64(t.PromoteAt))
		}
	}
	bw.u64(uint64(h.edges))
	if f.lpsk {
		bw.u64(math.Float64bits(h.triangles))
	}
	bw.u64(h.count)
}

// readHeader decodes an image header of format f. Every field is
// checked against what writeHeader can write, and the vertex count
// against what an input could back; the loader's store constructor
// validates the config as a whole.
func (f *storeFormat) readHeader(rd *binReader) (h storeHeader, err error) {
	if err := rd.magic(f.magic); err != nil {
		return h, err
	}
	version, err := rd.versionIn(persistVersion, persistVersionTiered)
	if err != nil {
		return h, err
	}
	if h.cfg.K, err = rd.sketchK(); err != nil {
		return h, err
	}
	if f.depth {
		d, err := rd.u32()
		if err != nil {
			return h, rd.fail("depth", err)
		}
		if d == 0 || d > maxDynDepth {
			return h, rd.corrupt("impossible recovery depth %d (max %d)", d, maxDynDepth)
		}
		h.depth = int(d)
	}
	if h.cfg.Seed, err = rd.u64(); err != nil {
		return h, rd.fail("seed", err)
	}
	var flags [4]byte
	if err := rd.read(flags[:]); err != nil {
		return h, rd.fail("flags", err)
	}
	if h.cfg.Hash, err = rd.hashKind(flags[0]); err != nil {
		return h, err
	}
	if h.cfg.Degrees, err = rd.degreeMode(flags[1]); err != nil {
		return h, err
	}
	if !f.lpsk && (flags[2] != 0 || flags[3] != 0) {
		return h, rd.corrupt("reserved flag bytes %#x %#x, want 0", flags[2], flags[3])
	}
	if h.cfg.EnableBiased, err = rd.boolByte("biased", flags[2]); err != nil {
		return h, err
	}
	if h.cfg.TrackTriangles, err = rd.boolByte("triangles", flags[3]); err != nil {
		return h, err
	}
	// A shard set supports neither (NewSharded): a shard that set one
	// would make every later vertex allocate state the batched apply
	// never updates.
	if rd.nShards > 0 && (h.cfg.EnableBiased || h.cfg.TrackTriangles) {
		return h, rd.corrupt("shard image sets the biased or triangles flag")
	}
	if version == persistVersionTiered {
		if h.cfg.Tiers, err = rd.tierTable(); err != nil {
			return h, err
		}
	}
	edges, err := rd.u64()
	if err != nil {
		return h, rd.fail("edge count", err)
	}
	h.edges = int64(edges)
	if f.lpsk {
		bits, err := rd.u64()
		if err != nil {
			return h, rd.fail("triangle accumulator", err)
		}
		h.triangles = math.Float64frombits(bits)
	}
	if h.count, err = rd.u64(); err != nil {
		return h, rd.fail("vertex count", err)
	}
	if h.count > math.MaxInt64/uint64(f.minRecord(h.cfg)) {
		return h, rd.corrupt("impossible vertex count %d for K=%d", h.count, h.cfg.K)
	}
	return h, nil
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
	lpskFormat.writeHeader(bw, storeHeader{cfg: s.cfg, edges: s.edges,
		triangles: s.triangles, count: uint64(len(s.vertices))})
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
	return load(r, loadSketchStore)
}

func loadSketchStore(rd *binReader) (*SketchStore, error) {
	start := rd.off
	h, err := lpskFormat.readHeader(rd)
	if err != nil {
		return nil, err
	}
	s, err := NewSketchStore(h.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: load config: %w", err)
	}
	s.edges, s.triangles = h.edges, h.triangles
	n, slots := lpskFormat.reservation(rd, start, h)
	s.vertices = make(map[uint64]*vertexState, n)
	s.bank.reserve(slots[0])
	var id uint64
	for i := uint64(0); i < h.count; i++ {
		if id, err = rd.vertexID(i, id); err != nil {
			return nil, err
		}
		arrivals, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d arrivals", id), err)
		}
		// Promotion is a pure function of the arrival count, so the
		// loaded vertex takes its slot straight in the tier it occupied
		// at save time, and its spans below have exactly the record's
		// width.
		st := s.newState(id, tierFor(s.tiers, int64(arrivals)))
		st.arrivals = int64(arrivals)
		vertexTri, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d triangles", id), err)
		}
		st.triangles = math.Float64frombits(vertexTri)
		// The on-disk format predates the register banks; conversion on
		// load is just filling the vertex's bank spans in place.
		if err := rd.span(&s.bank, st.slot, id); err != nil {
			return nil, err
		}
		if h.cfg.EnableBiased {
			n, err := rd.u32()
			if err != nil {
				return nil, rd.fail(fmt.Sprintf("vertex %d biased count", id), err)
			}
			if int(n) > h.cfg.K {
				return nil, rd.corrupt("vertex %d biased sketch has %d entries, max %d", id, n, h.cfg.K)
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
