package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Snapshots. A snapshot is a complete store image bound to a WAL
// sequence number: "this store has applied exactly the edges with
// seq ≤ S". Recovery loads the newest snapshot that passes its
// whole-file checksum and replays the WAL from S.
//
// Byte layout (little-endian; crc is CRC32C):
//
//	snapshot = magic "LPSN" | version u32 | seq u64 | payload | crc u32
//
// payload is the store's own Save image (any of the persist formats).
// The trailing crc covers every preceding byte, so a truncated or
// bit-flipped snapshot is detected before the payload is handed to a
// loader, and a loader that decodes in place proves it decoded exactly
// the bytes the crc covers (LoadNewestSnapshot). Snapshots are written
// with WriteFileAtomic — temp file, fsync, rename, fsync dir — so a
// crash mid-snapshot leaves the previous snapshot intact, and a corrupt
// newest snapshot falls back to the one before it.

const (
	snapMagic      = "LPSN"
	snapVersion    = 1
	snapHeaderSize = 16
)

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSnapName extracts the sequence number from a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	if len(hexa) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// crcWriter checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	return n, err
}

// WriteSnapshot writes a snapshot at sequence number seq into dir,
// calling save to produce the store image. The caller must ensure the
// store state corresponds to exactly the WAL prefix seq (the Durable
// wrapper quiesces ingest around this call).
func WriteSnapshot(fsys FS, dir string, seq uint64, save func(io.Writer) error) error {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("wal: create snapshot dir %s: %w", dir, err)
	}
	path := filepath.Join(dir, snapName(seq))
	return WriteFileAtomic(fsys, path, func(w io.Writer) error {
		cw := &crcWriter{w: w}
		var hdr [snapHeaderSize]byte
		copy(hdr[0:4], snapMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], snapVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], seq)
		if _, err := cw.Write(hdr[:]); err != nil {
			return err
		}
		if err := save(cw); err != nil {
			return err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], cw.crc)
		_, err := w.Write(tail[:])
		return err
	})
}

// ErrNoSnapshot is returned by LoadNewestSnapshot when dir holds no
// valid snapshot — the normal first boot.
var ErrNoSnapshot = errors.New("wal: no valid snapshot")

// LoadNewestSnapshot finds the newest snapshot in dir that passes its
// whole-file checksum and hands its payload to load. Corrupt or
// truncated snapshots are skipped (newest first), not fatal: the
// fallback chain ends at ErrNoSnapshot, which callers treat as "replay
// the whole log". It returns the snapshot's sequence number and the
// names of any corrupt snapshots it skipped.
//
// The payload is never read into memory whole. A streaming pass checks
// the file's checksum first, so load never sees a file that fails it;
// load then reads the file again, through a reader (see payload) that
// accepts the load only once the bytes load consumed are proven to be
// the ones the checksum covers. A load that fails on a file that passed
// is an error, not a skip.
func LoadNewestSnapshot(fsys FS, dir string, load func(io.Reader) error) (seq uint64, skipped []string, err error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: list snapshots in %s: %w", dir, err)
	}
	type snap struct {
		name string
		seq  uint64
	}
	var snaps []snap
	for _, name := range names {
		if s, ok := parseSnapName(name); ok {
			snaps = append(snaps, snap{name: name, seq: s})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	for _, sn := range snaps {
		ok, err := loadSnapshot(fsys, filepath.Join(dir, sn.name), sn.seq, load)
		if err != nil {
			// The checksum held but the loader rejected the image (e.g. a
			// version skew). That is a real error, not silent fallback —
			// surfacing it beats quietly recovering an older store.
			return 0, skipped, fmt.Errorf("wal: load snapshot %s: %w", sn.name, err)
		}
		if !ok {
			skipped = append(skipped, sn.name)
			continue
		}
		return sn.seq, skipped, nil
	}
	return 0, skipped, ErrNoSnapshot
}

// loadSnapshot hands the payload of the snapshot at path, named with
// sequence number seq, to load. It reports false without calling load
// when the file cannot be read or fails its framing or checksum.
func loadSnapshot(fsys FS, path string, seq uint64, load func(io.Reader) error) (bool, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return false, nil
	}
	defer f.Close()
	size, err := fsys.Stat(path)
	if err != nil {
		return false, nil
	}
	p, ok := checkSnapshot(f, size, seq)
	if !ok {
		return false, nil
	}
	if err := load(p); err != nil {
		return false, err
	}
	return true, p.settle()
}

// checkSnapshot checks the framing of a snapshot file of size bytes —
// magic, version, the sequence number it was named with — and streams
// it through its whole-file CRC. It returns a reader over the payload
// when all of them hold.
func checkSnapshot(f io.ReaderAt, size int64, wantSeq uint64) (*payload, bool) {
	if size < snapHeaderSize+4 {
		return nil, false
	}
	var hdr [snapHeaderSize]byte
	var tail [4]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, false
	}
	if _, err := f.ReadAt(tail[:], size-4); err != nil {
		return nil, false
	}
	if string(hdr[0:4]) != snapMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != snapVersion ||
		binary.LittleEndian.Uint64(hdr[8:16]) != wantSeq {
		return nil, false
	}
	p := &payload{
		sec:  io.NewSectionReader(f, snapHeaderSize, size-snapHeaderSize-4),
		seed: crc32.Checksum(hdr[:], castagnoli),
		want: binary.LittleEndian.Uint32(tail[:]),
	}
	p.crc = p.seed
	if crc, ok := p.sumFrom(p.seed, 0); !ok || crc != p.want {
		return nil, false
	}
	return p, true
}

// payload is the reader a snapshot's loader gets: the file's payload
// bytes, read in order (Read) or in place (ReadAt, Seek and Size). It
// decides whether a load that returned may stand (settle):
//
//   - a decoder that reads in place hashes what it consumes, continuing
//     from CRCSeed, and hands the sum to Verify before it returns a
//     store (core.LoadAny does);
//   - a loader that reads in order is checked on the bytes Read served,
//     and the rest of the payload, which settle reads;
//   - a loader that reads in place and never calls Verify is refused.
type payload struct {
	sec        *io.SectionReader
	seed, want uint32      // CRC-32C of the header; the file's trailer
	crc        uint32      // seed continued over the bytes Read served
	inPlace    atomic.Bool // ReadAt served bytes; decoders call it concurrently
	verified   bool        // Verify matched
}

func (p *payload) Read(b []byte) (int, error) {
	n, err := p.sec.Read(b)
	p.crc = crc32.Update(p.crc, castagnoli, b[:n])
	return n, err
}

func (p *payload) ReadAt(b []byte, off int64) (int, error) {
	p.inPlace.Store(true)
	return p.sec.ReadAt(b, off)
}

// Seek reports the position Read serves from; the position moves only
// by reading.
func (p *payload) Seek(offset int64, whence int) (int64, error) {
	if offset != 0 || whence != io.SeekCurrent {
		return 0, errors.New("wal: a snapshot payload seeks only to where it is")
	}
	return p.sec.Seek(0, io.SeekCurrent)
}

// Size returns the payload's length.
func (p *payload) Size() int64 { return p.sec.Size() }

// CRCSeed returns the CRC-32C of the header, which the file's checksum
// continues over the payload.
func (p *payload) CRCSeed() uint32 { return p.seed }

// Verify accepts a decode of n payload bytes whose CRC-32C, continued
// from CRCSeed, is crc: n must be the whole payload and crc the file's
// checksum.
func (p *payload) Verify(crc uint32, n int64) error {
	if n != p.Size() {
		return fmt.Errorf("wal: the loader decoded %d of the snapshot's %d payload bytes", n, p.Size())
	}
	if crc != p.want {
		return errPayloadChanged
	}
	p.verified = true
	return nil
}

// errPayloadChanged reports a payload whose bytes, read again by the
// loader, no longer match the checksum the streaming pass saw them
// match.
var errPayloadChanged = errors.New("wal: the snapshot's bytes changed while it was loaded")

// settle decides whether a load that returned successfully may stand.
func (p *payload) settle() error {
	switch {
	case p.verified:
		return nil
	case p.inPlace.Load():
		return errors.New("wal: the loader read the snapshot in place but never verified its checksum")
	}
	pos, _ := p.sec.Seek(0, io.SeekCurrent) // reporting the position cannot fail
	if crc, ok := p.sumFrom(p.crc, pos); !ok || crc != p.want {
		return errPayloadChanged
	}
	return nil
}

// sumFrom continues crc over the payload bytes from off to the end. ok
// is false when they cannot all be read.
func (p *payload) sumFrom(crc uint32, off int64) (uint32, bool) {
	buf := make([]byte, min(p.Size()-off, snapCheckChunk))
	for off < p.Size() {
		n, err := p.sec.ReadAt(buf[:min(int64(len(buf)), p.Size()-off)], off)
		crc = crc32.Update(crc, castagnoli, buf[:n])
		off += int64(n)
		if err != nil && off < p.Size() {
			return 0, false
		}
	}
	return crc, true
}

// snapCheckChunk is the most the checksum pass reads at once.
const snapCheckChunk = 64 << 10

// PruneSnapshots removes all snapshots older than keepSeq, keeping the
// one at keepSeq itself. Called after a successful checkpoint so disk
// use stays bounded at roughly one image plus the live WAL tail.
func PruneSnapshots(fsys FS, dir string, keepSeq uint64) (int, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: list snapshots in %s: %w", dir, err)
	}
	removed := 0
	for _, name := range names {
		seq, ok := parseSnapName(name)
		if !ok || seq >= keepSeq {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("wal: prune snapshot %s: %w", name, err)
		}
		removed++
	}
	if removed > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return removed, fmt.Errorf("wal: fsync dir after snapshot prune: %w", err)
		}
	}
	return removed, nil
}
