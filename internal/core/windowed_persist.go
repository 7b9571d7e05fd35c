package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Windowed persistence: header (window geometry and rotation cursor)
// followed by the per-generation SketchStore images. Restoring resumes
// the window exactly — including which generation is youngest and when
// it expires — so a restarted processor neither re-ages nor re-extends
// the window.

const (
	windowedMagic    = "LPSW"
	windowedVersion  = 1
	windowedReserved = "\x00\x00\x00\x00\x00\x00\x00" // header bytes 41–47
)

// Save writes the windowed store's complete state to w.
func (s *Windowed) Save(w io.Writer) error {
	bw := newBinWriter(w)
	bw.str(windowedMagic)
	bw.u32(windowedVersion)
	bw.u64(uint64(s.genSpan))
	bw.u32(uint32(len(s.gens)))
	bw.u32(uint32(s.cur))
	bw.u64(uint64(s.curEnd))
	bw.u64(uint64(s.rotation))
	bw.u8(flagByte(s.started))
	bw.str(windowedReserved)
	for i, g := range s.gens {
		if err := g.Save(bw.bw); err != nil {
			return fmt.Errorf("core: save generation %d: %w", i, err)
		}
	}
	if err := bw.flush(); err != nil {
		return fmt.Errorf("core: save windowed: %w", err)
	}
	return nil
}

// LoadWindowed restores a store saved by (*Windowed).Save. Corrupt
// images are rejected with errors naming the byte offset of the fault.
func LoadWindowed(r io.Reader) (*Windowed, error) { return load(r, loadWindowed) }

func loadWindowed(rd *binReader) (*Windowed, error) {
	if err := rd.magic(windowedMagic); err != nil {
		return nil, err
	}
	var hdr [44]byte
	if err := rd.read(hdr[:]); err != nil {
		return nil, rd.fail("windowed header", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != windowedVersion {
		return nil, rd.corrupt("unsupported windowed version %d (supported: %d)", v, windowedVersion)
	}
	span := int64(binary.LittleEndian.Uint64(hdr[4:12]))
	nGens := binary.LittleEndian.Uint32(hdr[12:16])
	if span < 1 || nGens < 2 || nGens > 1<<16 {
		return nil, rd.corrupt("implausible windowed geometry: span %d, %d generations", span, nGens)
	}
	cur := binary.LittleEndian.Uint32(hdr[16:20])
	if cur >= nGens {
		return nil, rd.corrupt("generation cursor %d out of range [0, %d)", cur, nGens)
	}
	rotation := int64(binary.LittleEndian.Uint64(hdr[28:36]))
	if rotation < 0 {
		return nil, rd.corrupt("negative rotation count %d", rotation)
	}
	if hdr[36] > 1 {
		return nil, rd.corrupt("started flag byte %#x, want 0 or 1", hdr[36])
	}
	started := hdr[36] == 1
	if string(hdr[37:]) != windowedReserved {
		return nil, rd.corrupt("reserved windowed header bytes %x, want 0", hdr[37:])
	}
	gens := make([]*SketchStore, nGens)
	for i := range gens {
		store, err := loadSketchStore(rd)
		if err != nil {
			return nil, fmt.Errorf("core: load generation %d: %w", i, err)
		}
		if i > 0 && store.cfg != gens[0].cfg {
			return nil, fmt.Errorf("core: generation %d config differs from generation 0", i)
		}
		// NewWindowed supports neither, so Save never writes them.
		if store.cfg.EnableBiased || store.cfg.TrackTriangles {
			return nil, rd.corrupt("generation %d sets the biased or triangles flag", i)
		}
		gens[i] = store
	}
	return &Windowed{
		cfg:      gens[0].cfg,
		genSpan:  span,
		gens:     gens,
		cur:      int(cur),
		curEnd:   int64(binary.LittleEndian.Uint64(hdr[20:28])),
		rotation: rotation,
		started:  started,
	}, nil
}
