package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
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
// twice produces byte-identical output.
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

// writeTierTable appends a v2 header's tier ladder: tier count u32,
// then (K u32, PromoteAt u64) per tier.
func writeTierTable(bw *bufio.Writer, tiers []Tier) error {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(tiers)))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	for _, t := range tiers {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(t.K))
		binary.LittleEndian.PutUint64(buf[4:12], uint64(t.PromoteAt))
		if _, err := bw.Write(buf[:12]); err != nil {
			return err
		}
	}
	return nil
}

// Save writes the store's complete state to w.
func (s *SketchStore) Save(w io.Writer) error {
	bw, buffered := w.(*bufio.Writer)
	if !buffered {
		bw = bufio.NewWriter(w)
	}
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("core: save magic: %w", err)
	}
	writeU32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	writeU64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	version := uint32(persistVersion)
	if s.tiers != nil {
		version = persistVersionTiered
	}
	if err := writeU32(version); err != nil {
		return fmt.Errorf("core: save version: %w", err)
	}
	if err := writeU32(uint32(s.cfg.K)); err != nil {
		return fmt.Errorf("core: save K: %w", err)
	}
	if err := writeU64(s.cfg.Seed); err != nil {
		return fmt.Errorf("core: save seed: %w", err)
	}
	flags := []byte{byte(s.cfg.Hash), byte(s.cfg.Degrees), 0, 0}
	if s.cfg.EnableBiased {
		flags[2] = 1
	}
	if s.cfg.TrackTriangles {
		flags[3] = 1
	}
	if _, err := bw.Write(flags); err != nil {
		return fmt.Errorf("core: save flags: %w", err)
	}
	if s.tiers != nil {
		if err := writeTierTable(bw, s.tiers); err != nil {
			return fmt.Errorf("core: save tier table: %w", err)
		}
	}
	if err := writeU64(uint64(s.edges)); err != nil {
		return fmt.Errorf("core: save edge count: %w", err)
	}
	if err := writeU64(math.Float64bits(s.triangles)); err != nil {
		return fmt.Errorf("core: save triangle accumulator: %w", err)
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
		if err := writeU64(uint64(st.arrivals)); err != nil {
			return fmt.Errorf("core: save vertex %d arrivals: %w", id, err)
		}
		if err := writeU64(math.Float64bits(st.triangles)); err != nil {
			return fmt.Errorf("core: save vertex %d triangles: %w", id, err)
		}
		for _, v := range s.bank.regs(st.slot) {
			if err := writeU64(v); err != nil {
				return fmt.Errorf("core: save vertex %d registers: %w", id, err)
			}
		}
		for _, v := range s.bank.argmins(st.slot) {
			if err := writeU64(v); err != nil {
				return fmt.Errorf("core: save vertex %d argmins: %w", id, err)
			}
		}
		if s.cfg.EnableBiased {
			if err := writeU32(uint32(len(st.biased.entries))); err != nil {
				return fmt.Errorf("core: save vertex %d biased count: %w", id, err)
			}
			for _, e := range st.biased.entries {
				if err := writeU64(e.id); err != nil {
					return fmt.Errorf("core: save vertex %d biased ids: %w", id, err)
				}
				if err := writeU64(math.Float64bits(e.rank)); err != nil {
					return fmt.Errorf("core: save vertex %d biased ranks: %w", id, err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: save flush: %w", err)
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
	for i := uint64(0); i < vertexCount; i++ {
		id, err := rd.u64()
		if err != nil {
			return nil, rd.fail(fmt.Sprintf("vertex %d id", i), err)
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
