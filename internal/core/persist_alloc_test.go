package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// snapshotStores builds the stores the snapshot load and save bounds are
// measured on — 8 shards of K=128 with KMV degrees over a skewed R-MAT
// graph, uniform and with the tier ladder 16:0,64:8,128:64 — and writes
// each as a WAL snapshot into its own directory under dir.
func snapshotStores(tb testing.TB, dir string) map[string]*Sharded {
	tb.Helper()
	src, err := gen.RMAT(12, 1<<16, .57, .19, .19, .05, 1601)
	if err != nil {
		tb.Fatal(err)
	}
	edges, err := stream.Collect(src)
	if err != nil {
		tb.Fatal(err)
	}
	uniform := Config{K: 128, Seed: 42, Degrees: DegreeDistinctKMV}
	tiered := uniform
	tiered.Tiers = [MaxTiers]Tier{{K: 16}, {K: 64, PromoteAt: 8}, {K: 128, PromoteAt: 64}}
	stores := map[string]*Sharded{}
	for name, cfg := range map[string]Config{"uniform": uniform, "tiered": tiered} {
		s := must(NewSharded(cfg, 8))
		s.ProcessEdges(edges)
		if err := wal.WriteSnapshot(nil, filepath.Join(dir, name), uint64(len(edges)), s.Save); err != nil {
			tb.Fatal(err)
		}
		stores[name] = s
	}
	return stores
}

// loadSnapshot boots a store from the newest snapshot in dir the way a
// server does, and returns it with the snapshot file's size.
func loadSnapshot(tb testing.TB, dir string) (Store, int64) {
	tb.Helper()
	var st Store
	if _, _, err := wal.LoadNewestSnapshot(nil, dir, func(r io.Reader) error {
		var err error
		st, err = LoadAny(r)
		return err
	}); err != nil {
		tb.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil || len(names) != 1 {
		tb.Fatalf("snapshot dir %s: %v, %v", dir, names, err)
	}
	info, err := names[0].Info()
	if err != nil {
		tb.Fatal(err)
	}
	return st, info.Size()
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// loadFile loads the store image in the file at path from the open
// *os.File, as lpserver boots from -checkpoint.
func loadFile(tb testing.TB, path string) Store {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	st, err := LoadAny(f)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestSnapshotLoadSaveAllocBounds: booting from a WAL snapshot decodes
// the store straight from the file, in place, so the whole boot
// allocates at most 1.5× the snapshot — the store it becomes plus read
// buffers; so does loading a checkpoint image from an *os.File. Save
// allocates nothing per word: at most 1.5× the image, and under 1 MiB.
// Uniform and tiered.
func TestSnapshotLoadSaveAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	dir := t.TempDir()
	for name, want := range snapshotStores(t, dir) {
		img := saveBytes(t, want.Save)
		ckpt := filepath.Join(t.TempDir(), "checkpoint")
		if err := os.WriteFile(ckpt, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			withGOMAXPROCS(procs, func() {
				var st Store
				var size int64
				load := allocated(func() { st, size = loadSnapshot(t, filepath.Join(dir, name)) })
				if got, _ := st.(*Sharded); got == nil || !bytes.Equal(saveBytes(t, got.Save), img) {
					t.Fatalf("%s, GOMAXPROCS=%d: the loaded store does not re-save to its image", name, procs)
				}
				var fromFile Store
				file := allocated(func() { fromFile = loadFile(t, ckpt) })
				if !bytes.Equal(saveBytes(t, fromFile.Save), img) {
					t.Fatalf("%s, GOMAXPROCS=%d: the store loaded from the checkpoint file does not re-save to its image", name, procs)
				}
				if float64(file) > 1.5*float64(len(img)) {
					t.Errorf("%s, GOMAXPROCS=%d: loading from the file allocated %d bytes for a %d-byte image (> 1.5x)", name, procs, file, len(img))
				}
				save := allocated(func() {
					if err := st.Save(io.Discard); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s, GOMAXPROCS=%d: %d-byte snapshot; load allocates %.2fx, from a file %.2fx, save %.2fx",
					name, procs, size, float64(load)/float64(size), float64(file)/float64(len(img)), float64(save)/float64(size))
				if float64(load) > 1.5*float64(size) {
					t.Errorf("%s, GOMAXPROCS=%d: load allocated %d bytes for a %d-byte snapshot (> 1.5x)", name, procs, load, size)
				}
				if float64(save) > 1.5*float64(size) {
					t.Errorf("%s, GOMAXPROCS=%d: save allocated %d bytes for a %d-byte image (> 1.5x)", name, procs, save, size)
				}
				// The shards encode straight into the writer: only the
				// sorted id lists are allocated.
				if save >= 1<<20 {
					t.Errorf("%s, GOMAXPROCS=%d: save allocated %d bytes (>= 1 MiB)", name, procs, save)
				}
			})
		}
	}
}

// BenchmarkLoadSnapshot boots a store from a WAL snapshot: checksum the
// file in one streaming pass, then decode the image from it in place.
func BenchmarkLoadSnapshot(b *testing.B) {
	dir := b.TempDir()
	snapshotStores(b, dir)
	for _, name := range []string{"uniform", "tiered"} {
		b.Run(name, func(b *testing.B) {
			_, size := loadSnapshot(b, filepath.Join(dir, name))
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loadSnapshot(b, filepath.Join(dir, name))
			}
		})
	}
}

// BenchmarkSaveSharded encodes a sharded store's image, as a checkpoint
// does while ingest is quiesced.
func BenchmarkSaveSharded(b *testing.B) {
	for name, s := range snapshotStores(b, b.TempDir()) {
		b.Run(name, func(b *testing.B) {
			var img bytes.Buffer
			if err := s.Save(&img); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(img.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Save(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
