package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"linkpred/internal/wal"
)

// snapshotFS is a directory of WAL snapshots on one filesystem: the
// real one (OSFS, in a temp dir) or the fault-injection one.
type snapshotFS struct {
	name string
	fsys wal.FS
	dir  string
}

func snapshotFSes(t *testing.T) []snapshotFS {
	return []snapshotFS{
		{"OSFS", wal.OSFS{}, t.TempDir()},
		{"FaultFS", wal.NewFaultFS(), "/snaps"},
	}
}

// put writes data as the snapshot file for seq, whatever its bytes.
func (s snapshotFS) put(t *testing.T, seq uint64, data []byte) {
	t.Helper()
	name := filepath.Join(s.dir, fmt.Sprintf("snap-%016x.snap", seq))
	if err := wal.WriteFileAtomic(s.fsys, name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// snapshotFile returns the snapshot file WriteSnapshot makes of save at
// seq.
func snapshotFile(t testing.TB, seq uint64, save func(io.Writer) error) []byte {
	t.Helper()
	fsys := wal.NewFaultFS()
	if err := wal.WriteSnapshot(fsys, "/s", seq, save); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(fmt.Sprintf("/s/snap-%016x.snap", seq))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// bootLoads loads the newest snapshot in dir through LoadAny, the way a
// server boots, and returns the images of the stores the load callback
// reported success for, in order.
func bootLoads(fsys wal.FS, dir string) (seq uint64, skipped []string, loaded [][]byte, err error) {
	seq, skipped, err = wal.LoadNewestSnapshot(fsys, dir, func(r io.Reader) error {
		s, err := LoadAny(r)
		if err == nil {
			var img bytes.Buffer
			if err := s.Save(&img); err != nil {
				return err
			}
			loaded = append(loaded, img.Bytes())
		}
		return err
	})
	return seq, skipped, loaded, err
}

// flipOffsets returns the file offsets a flip sweep over an n-byte
// snapshot visits: every header byte, 64 strides across the payload —
// so every shard section of a few-shard image — and every trailer byte.
func flipOffsets(n int) []int {
	var offs []int
	for i := 0; i < 16; i++ {
		offs = append(offs, i)
	}
	for i := 16; i < n-4; i += max(1, (n-20)/64) {
		offs = append(offs, i)
	}
	for i := n - 4; i < n; i++ {
		offs = append(offs, i)
	}
	return offs
}

// twoSnapshots returns the images of an older and a newer store of cfg:
// 4 shards over half of an edge stream, and over all of it.
func twoSnapshots(t *testing.T, cfg Config) (older, newer []byte) {
	edges := skewedEdges(60, 900, 31)
	s := must(NewSharded(cfg, 4))
	s.ProcessEdges(edges[:len(edges)/2])
	older = saveBytes(t, s.Save)
	s.ProcessEdges(edges[len(edges)/2:])
	return older, saveBytes(t, s.Save)
}

var (
	snapUniform = Config{K: 16, Seed: 9, Degrees: DegreeDistinctKMV}
	snapTiered  = Config{K: 16, Seed: 9, Degrees: DegreeDistinctKMV,
		Tiers: [MaxTiers]Tier{{K: 4}, {K: 8, PromoteAt: 4}, {K: 16, PromoteAt: 12}}}
)

// TestSnapshotFlipsFallBack: a snapshot file with any byte flipped —
// header, any shard section of the payload, or trailer — is skipped, and
// recovery falls back to the older snapshot; the load callback never
// reports success for the flipped file. On the real filesystem and on
// FaultFS, for uniform and tiered images, with the shard fan-out on.
func TestSnapshotFlipsFallBack(t *testing.T) {
	for _, cfg := range []Config{snapUniform, snapTiered} {
		older, newer := twoSnapshots(t, cfg)
		file := snapshotFile(t, 200, func(w io.Writer) error { _, err := w.Write(newer); return err })
		for _, sfs := range snapshotFSes(t) {
			t.Run(fmt.Sprintf("%s/tiered=%v", sfs.name, cfg.tiered()), func(t *testing.T) {
				sfs.put(t, 100, snapshotFile(t, 100, func(w io.Writer) error { _, err := w.Write(older); return err }))
				withGOMAXPROCS(2, func() {
					for _, off := range flipOffsets(len(file)) {
						mut := bytes.Clone(file)
						mut[off] ^= 0x04
						sfs.put(t, 200, mut)
						seq, skipped, loaded, err := bootLoads(sfs.fsys, sfs.dir)
						if err != nil || seq != 100 || len(skipped) != 1 {
							t.Fatalf("flip at byte %d of %d: seq %d, skipped %v, err %v; want a fallback to seq 100",
								off, len(file), seq, skipped, err)
						}
						if len(loaded) != 1 || !bytes.Equal(loaded[0], older) {
							t.Fatalf("flip at byte %d: the callback reported %d loads, want one, of the older image", off, len(loaded))
						}
					}
				})
				sfs.put(t, 200, file)
				if seq, _, loaded, err := bootLoads(sfs.fsys, sfs.dir); err != nil || seq != 200 || !bytes.Equal(loaded[0], newer) {
					t.Fatalf("the intact newer snapshot: seq %d, err %v", seq, err)
				}
			})
		}
	}
}

// TestSnapshotRejectedImageIsHardError: a snapshot that passes its
// checksum but holds an image the loader rejects is an error naming it,
// not a fallback to the older snapshot.
func TestSnapshotRejectedImageIsHardError(t *testing.T) {
	older, newer := twoSnapshots(t, snapUniform)
	for _, sfs := range snapshotFSes(t) {
		sfs.put(t, 100, snapshotFile(t, 100, func(w io.Writer) error { _, err := w.Write(older); return err }))
		sfs.put(t, 200, snapshotFile(t, 200, func(w io.Writer) error {
			_, err := w.Write(append(bytes.Clone(newer), 0)) // a byte after the image
			return err
		}))
		seq, _, loaded, err := bootLoads(sfs.fsys, sfs.dir)
		if err == nil || errors.Is(err, wal.ErrNoSnapshot) || !strings.Contains(err.Error(), "snap-00000000000000c8.snap") {
			t.Fatalf("%s: seq %d, err %v; want a hard error naming the newer snapshot", sfs.name, seq, err)
		}
		if len(loaded) != 0 {
			t.Fatalf("%s: the callback reported %d loads", sfs.name, len(loaded))
		}
	}
}

// changingFS serves each file as it is until every byte of it has been
// read once, and from then on with byte flip flipped: a disk whose
// contents change between the snapshot's checksum pass and the decode.
type changingFS struct {
	*wal.FaultFS
	flip int
}

func (c changingFS) Open(name string) (wal.ReadAtCloser, error) {
	data, err := c.FaultFS.ReadFile(name)
	if err != nil {
		return nil, err
	}
	later := bytes.Clone(data)
	later[c.flip] ^= 0x10
	return &changingFile{now: data, later: later}, nil
}

// changingFile is a file of changingFS. Its ReadAt may be called
// concurrently, as io.ReaderAt allows.
type changingFile struct {
	now, later []byte
	served     atomic.Int64 // bytes read so far
	pos        int          // where Read reads
}

func (f *changingFile) ReadAt(p []byte, off int64) (int, error) {
	src := f.now
	if f.served.Load() >= int64(len(f.now)) {
		src = f.later
	}
	if off >= int64(len(src)) {
		return 0, io.EOF
	}
	n := copy(p, src[off:])
	f.served.Add(int64(n))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *changingFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, int64(f.pos))
	f.pos += n
	return n, err
}

func (f *changingFile) Close() error { return nil }

// TestSnapshotChangedWhileLoaded: when the payload changes after the
// checksum pass, no load stands. A decoder reading in place (LoadAny,
// sequentially and with the shard fan-out) fails its Verify; a loader
// reading in order is checked on the bytes it was served, and one that
// reads nothing on the rest of the payload. Each is an error, never a
// store.
func TestSnapshotChangedWhileLoaded(t *testing.T) {
	loaders := map[string]func(io.Reader) error{
		"LoadAny": func(r io.Reader) error { _, err := LoadAny(r); return err },
		"ReadAll": func(r io.Reader) error { _, err := io.ReadAll(r); return err },
		"none":    func(io.Reader) error { return nil },
	}
	for _, cfg := range []Config{snapUniform, snapTiered} {
		_, img := twoSnapshots(t, cfg)
		file := snapshotFile(t, 1, func(w io.Writer) error { _, err := w.Write(img); return err })
		for name, load := range loaders {
			for _, procs := range []int{1, 2} {
				withGOMAXPROCS(procs, func() {
					for _, off := range flipOffsets(len(file)) {
						if off < 16 || off >= len(file)-4 {
							continue // the loader never reads the header or trailer
						}
						fsys := changingFS{wal.NewFaultFS(), off}
						snapshotFS{fsys: fsys, dir: "/snaps"}.put(t, 1, file)
						stored := false
						_, _, err := wal.LoadNewestSnapshot(fsys, "/snaps", func(r io.Reader) error {
							err := load(r)
							stored = stored || (name == "LoadAny" && err == nil)
							return err
						})
						if err == nil || errors.Is(err, wal.ErrNoSnapshot) {
							t.Fatalf("%s, tiered=%v, GOMAXPROCS=%d, payload changed at byte %d: err %v, want a hard error",
								name, cfg.tiered(), procs, off, err)
						}
						if stored {
							t.Fatalf("%s, tiered=%v, GOMAXPROCS=%d, byte %d: LoadAny returned a store built from changed bytes",
								name, cfg.tiered(), procs, off)
						}
					}
				})
			}
		}
	}
}

// TestSnapshotInPlaceLoaderMustVerify: a loader that reads the payload
// in place and never hands its checksum to Verify is not accepted, even
// from an intact snapshot.
func TestSnapshotInPlaceLoaderMustVerify(t *testing.T) {
	_, img := twoSnapshots(t, snapUniform)
	sfs := snapshotFSes(t)[1]
	sfs.put(t, 1, snapshotFile(t, 1, func(w io.Writer) error { _, err := w.Write(img); return err }))
	_, _, err := wal.LoadNewestSnapshot(sfs.fsys, sfs.dir, func(r io.Reader) error {
		ra := r.(io.ReaderAt)
		buf := make([]byte, len(img))
		_, err := ra.ReadAt(buf, 0)
		return err
	})
	if err == nil || errors.Is(err, wal.ErrNoSnapshot) {
		t.Fatalf("an unverified in-place load: err %v, want a hard error", err)
	}
}

// FuzzLoadSnapshot writes each input as a snapshot file and boots from
// it through LoadNewestSnapshot and LoadAny. Seeded with valid uniform,
// tiered and directed sharded snapshots. reseal rewrites the trailer to
// the checksum of the rest, so mutated payloads reach the decoder too.
// Each input must be skipped; or be a hard error, and then the file
// passes its checksum; or load a store that re-saves to exactly the
// payload. Never a panic.
func FuzzLoadSnapshot(f *testing.F) {
	edges := skewedEdges(12, 60, 5)
	d := must(NewShardedDirected(snapTiered, 3))
	d.ProcessArcs(edges)
	saves := []func(io.Writer) error{d.Save}
	for _, cfg := range []Config{snapUniform, snapTiered} {
		s := must(NewSharded(cfg, 3))
		s.ProcessEdges(edges)
		saves = append(saves, s.Save)
	}
	for _, save := range saves {
		f.Add(snapshotFile(f, 7, save), false)
		f.Add(snapshotFile(f, 7, save), true)
	}

	f.Fuzz(func(t *testing.T, file []byte, reseal bool) {
		n := len(file)
		if reseal && n >= 20 {
			binary.LittleEndian.PutUint32(file[n-4:], crc32.Checksum(file[:n-4], castagnoli))
		}
		seq := uint64(1)
		if n >= 16 {
			seq = binary.LittleEndian.Uint64(file[8:16]) // name the file as its header does
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq)), file, 0o644); err != nil {
			t.Fatal(err)
		}
		checksummed := n >= 20 && crc32.Checksum(file[:n-4], castagnoli) == binary.LittleEndian.Uint32(file[n-4:])
		got, _, loaded, err := bootLoads(wal.OSFS{}, dir)
		switch {
		case errors.Is(err, wal.ErrNoSnapshot):
			if len(loaded) != 0 {
				t.Fatal("a skipped snapshot reported a load")
			}
		case err != nil:
			if !checksummed {
				t.Fatalf("a hard error for a file that fails its checksum: %v", err)
			}
		default:
			if !checksummed || got != seq || len(loaded) != 1 || !bytes.Equal(loaded[0], file[16:n-4]) {
				t.Fatalf("loaded seq %d (checksummed %v, %d loads) does not re-save to the payload", got, checksummed, len(loaded))
			}
		}
	})
}
