package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"linkpred/internal/hashing"
)

// Hardened binary-image decoding, shared by every persistence loader.
//
// Checkpoint images come off disks that tear writes, filesystems that
// truncate on crash, and operators that point the loader at the wrong
// file. The loaders therefore treat every field as hostile: counts are
// bounded before any allocation sized by them, enum and flag bytes are
// checked against their legal ranges, and every decode error names the
// byte offset where the image went bad so a corrupt checkpoint can be
// diagnosed with nothing but the error string and a hex dump.
//
// The encoding side, binWriter, is at the end of this file: every Save
// writes its words through it.

// maxPersistK bounds the sketch width accepted from an image. The
// largest useful K is a few thousand (error shrinks as 1/√K); 2^20
// registers per vertex (16 MiB) is far beyond any real configuration,
// so anything bigger is treated as corruption rather than letting a
// forged count drive per-vertex allocations to gigabytes. The store
// constructors enforce the same bound (Config.validateK), so no store
// can write an image its own loader would refuse.
const maxPersistK = 1 << 20

// binReader decodes little-endian binary images while tracking the
// offset of the next unread byte, counted from where decoding started
// (for a container format such as the sharded image, that is the start
// of the *container*, so offsets in errors locate the fault within the
// whole file).
//
// When the input allows random access (see randomAccess), the reader
// also keeps it as src: image byte off is src byte base+off, and the
// input ends at image offset size. Loaders use that to look ahead
// without consuming (peekAt), to size a store before decoding it, and
// to decode the shards of a container in place, each from its own
// section.
type binReader struct {
	br  *bufio.Reader
	off int64
	buf []byte // u64s staging buffer, reused across calls

	src        io.ReaderAt // nil for a stream
	base, size int64
}

// randomAccess is an input the loaders can read in place: the
// *bytes.Reader wal.LoadNewestSnapshot hands over, a *strings.Reader or
// an *io.SectionReader. The image runs from its current position to
// Size.
type randomAccess interface {
	io.ReadSeeker
	io.ReaderAt
	Size() int64
}

// newBinReader wraps r. An existing *bufio.Reader is used as-is:
// wrapping again would read ahead past the current image and corrupt
// any data that follows it in the same stream (the sharded formats
// concatenate several store images back to back).
func newBinReader(r io.Reader) *binReader {
	rd := &binReader{}
	if ra, ok := r.(randomAccess); ok {
		if pos, err := ra.Seek(0, io.SeekCurrent); err == nil {
			rd.src, rd.base, rd.size = ra, pos, ra.Size()-pos
		}
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	rd.br = br
	return rd
}

// section returns a reader over image bytes [off, off+n) of a
// random-access input. Its offsets stay image-relative, so errors from
// a shard decoded on its own still locate the fault in the container.
func (b *binReader) section(off, n int64) *binReader {
	return &binReader{
		br:   bufio.NewReader(io.NewSectionReader(b.src, b.base+off, n)),
		off:  off,
		src:  b.src,
		base: b.base,
		size: off + n,
	}
}

// peekAt fills p with the image bytes at image offset off without
// consuming anything. It reports false on a stream and when the input
// ends first.
func (b *binReader) peekAt(p []byte, off int64) bool {
	if b.src == nil || off < 0 || off > b.size-int64(len(p)) {
		return false
	}
	_, err := b.src.ReadAt(p, b.base+off)
	return err == nil
}

// backable returns how many of count records, each at least minRec
// bytes, the unread input of a random-access input can hold. Loaders
// reserve no more than this, so a forged count cannot make them
// allocate ahead of their input. A stream cannot tell how much remains,
// so it backs none: its loaders grow as they decode.
func (b *binReader) backable(count uint64, minRec int) int {
	if b.src == nil {
		return 0
	}
	return int(min(count, uint64(max(b.size-b.off, 0))/uint64(minRec)))
}

// fail wraps err with the field being decoded and the image offset
// where its bytes ended. io.EOF is folded into ErrUnexpectedEOF first:
// inside a structured image a clean EOF still means truncation.
func (b *binReader) fail(what string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("core: load %s at image byte %d: %w", what, b.off, err)
}

// corrupt reports a structurally invalid field at the current offset.
func (b *binReader) corrupt(format string, args ...interface{}) error {
	return fmt.Errorf("core: corrupt image at byte %d: %s", b.off, fmt.Sprintf(format, args...))
}

func (b *binReader) read(p []byte) error {
	n, err := io.ReadFull(b.br, p)
	b.off += int64(n)
	return err
}

// staged reads the next n ≤ 8*u64sChunk bytes into the reader's staging
// buffer, so decoding a word allocates nothing. The bytes stay valid
// until the next read.
func (b *binReader) staged(n int) ([]byte, error) {
	if b.buf == nil {
		b.buf = make([]byte, 8*u64sChunk)
	}
	p := b.buf[:n]
	return p, b.read(p)
}

func (b *binReader) u32() (uint32, error) {
	p, err := b.staged(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (b *binReader) u64() (uint64, error) {
	p, err := b.staged(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

// u64sChunk is how many words u64s moves per ReadFull.
const u64sChunk = 512

// u64s fills dst with little-endian words: one ReadFull per chunk of
// u64sChunk words and a decode loop, instead of one call per word. On a
// short read the offset advances by exactly the bytes that were there
// and a missing word is io.ErrUnexpectedEOF or io.EOF — just as a
// word-at-a-time loop would leave it — so error offsets do not depend
// on which decoder met the tear.
func (b *binReader) u64s(dst []uint64) error {
	for len(dst) > 0 {
		n := min(len(dst), u64sChunk)
		p, err := b.staged(8 * n)
		if err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
		dst = dst[n:]
	}
	return nil
}

// span decodes one vertex record's register span of bank slot — the
// values, then the argmin ids — and rebuilds the slot's cached KMV sum
// from the values. id names the vertex in errors.
func (b *binReader) span(bank *regBank, slot int32, id uint64) error {
	if err := b.u64s(bank.regs(slot)); err != nil {
		return b.fail(fmt.Sprintf("vertex %d registers", id), err)
	}
	if err := b.u64s(bank.argmins(slot)); err != nil {
		return b.fail(fmt.Sprintf("vertex %d argmins", id), err)
	}
	bank.resum(slot)
	return nil
}

// magic consumes and checks a 4-byte magic string.
func (b *binReader) magic(want string) error {
	var m [4]byte
	if err := b.read(m[:]); err != nil {
		return b.fail("magic", err)
	}
	if string(m[:]) != want {
		return b.corrupt("bad magic %q, want %q", m, want)
	}
	return nil
}

// version consumes a u32 version field and checks it.
func (b *binReader) version(want uint32) error {
	v, err := b.u32()
	if err != nil {
		return b.fail("version", err)
	}
	if v != want {
		return b.corrupt("unsupported version %d (supported: %d)", v, want)
	}
	return nil
}

// versionIn consumes a u32 version field, checks it against the set of
// supported versions, and returns the one read — for formats with more
// than one live version (uniform v1 images and tiered v2 images).
func (b *binReader) versionIn(supported ...uint32) (uint32, error) {
	v, err := b.u32()
	if err != nil {
		return 0, b.fail("version", err)
	}
	for _, s := range supported {
		if v == s {
			return v, nil
		}
	}
	return 0, b.corrupt("unsupported version %d (supported: %v)", v, supported)
}

// tierTable consumes the tier ladder a tiered (v2) image carries in its
// header: a u32 tier count followed by (K u32, PromoteAt u64) per tier.
// Only the count and widths are bounded here — the structural rules
// (ascending K and thresholds, last K = Config.K) are enforced by the
// store constructor, which every loader runs the table through.
func (b *binReader) tierTable() ([MaxTiers]Tier, error) {
	var tiers [MaxTiers]Tier
	n, err := b.u32()
	if err != nil {
		return tiers, b.fail("tier count", err)
	}
	if n < 2 || n > MaxTiers {
		return tiers, b.corrupt("impossible tier count %d (want 2..%d)", n, MaxTiers)
	}
	for i := uint32(0); i < n; i++ {
		k, err := b.u32()
		if err != nil {
			return tiers, b.fail("tier K", err)
		}
		if k == 0 || k > maxPersistK {
			return tiers, b.corrupt("impossible tier width K=%d (max %d)", k, maxPersistK)
		}
		p, err := b.u64()
		if err != nil {
			return tiers, b.fail("tier threshold", err)
		}
		if p > math.MaxInt64 {
			return tiers, b.corrupt("impossible tier threshold %d", p)
		}
		tiers[i] = Tier{K: int(k), PromoteAt: int64(p)}
	}
	return tiers, nil
}

// sketchK consumes a u32 sketch width and bounds it.
func (b *binReader) sketchK() (int, error) {
	k, err := b.u32()
	if err != nil {
		return 0, b.fail("K", err)
	}
	if k == 0 || k > maxPersistK {
		return 0, b.corrupt("impossible sketch width K=%d (max %d)", k, maxPersistK)
	}
	return int(k), nil
}

// boolByte validates a flag byte that must be exactly 0 or 1.
func (b *binReader) boolByte(what string, v byte) (bool, error) {
	if v > 1 {
		return false, b.corrupt("%s flag byte %#x, want 0 or 1", what, v)
	}
	return v == 1, nil
}

// hashKind validates a hash-family enum byte.
func (b *binReader) hashKind(v byte) (hashing.Kind, error) {
	k := hashing.Kind(v)
	if k < hashing.KindMixed || k > hashing.KindTabulation {
		return 0, b.corrupt("unknown hash family %d", v)
	}
	return k, nil
}

// degreeMode validates a degree-mode enum byte.
func (b *binReader) degreeMode(v byte) (DegreeMode, error) {
	m := DegreeMode(v)
	if m < DegreeArrivals || m > DegreeDistinctKMV {
		return 0, b.corrupt("unknown degree mode %d", v)
	}
	return m, nil
}

// binWriter is the encoding side of binReader: it appends little-endian
// words straight into a bufio.Writer's free buffer, so a Save allocates
// nothing per word. Write errors are the bufio.Writer's own — sticky,
// and returned by flush — so encoders write every field unchecked and
// check once at the end.
type binWriter struct{ bw *bufio.Writer }

// newBinWriter wraps w. bufio.NewWriter returns a *bufio.Writer of at
// least its default size as-is, so the images a container concatenates
// share its buffer; a smaller one is wrapped, which keeps every free
// buffer wide enough for a word.
func newBinWriter(w io.Writer) binWriter { return binWriter{bufio.NewWriter(w)} }

// free returns the writer's free buffer once it holds at least n bytes,
// flushing first if needed, or nil after a write error.
func (w binWriter) free(n int) []byte {
	if w.bw.Available() < n && w.bw.Flush() != nil {
		return nil
	}
	return w.bw.AvailableBuffer()
}

func (w binWriter) u32(v uint32) {
	if p := w.free(4); p != nil {
		w.bw.Write(binary.LittleEndian.AppendUint32(p, v))
	}
}

func (w binWriter) u64(v uint64) {
	if p := w.free(8); p != nil {
		w.bw.Write(binary.LittleEndian.AppendUint64(p, v))
	}
}

// u64s writes vs as consecutive words, a free buffer's worth per Write.
func (w binWriter) u64s(vs []uint64) {
	for len(vs) > 0 {
		p := w.free(8)
		if p == nil {
			return
		}
		n := min(len(vs), cap(p)/8)
		for _, v := range vs[:n] {
			p = binary.LittleEndian.AppendUint64(p, v)
		}
		w.bw.Write(p)
		vs = vs[n:]
	}
}

func (w binWriter) u8(v byte) { w.bw.WriteByte(v) }

// str writes s's bytes, such as a format's magic.
func (w binWriter) str(s string) { w.bw.WriteString(s) }

// flush writes out the buffer and returns the first write error.
func (w binWriter) flush() error { return w.bw.Flush() }
