package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"linkpred/internal/stream"
)

// testEdges returns n deterministic edges from a tiny LCG.
func testEdges(seed uint64, n int) []stream.Edge {
	edges := make([]stream.Edge, n)
	x := seed*6364136223846793005 + 1442695040888963407
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for i := range edges {
		edges[i] = stream.Edge{U: next() % 500, V: next() % 500, T: int64(i)}
	}
	return edges
}

func collectReplay(t *testing.T, fsys FS, dir string, after uint64) ([]stream.Edge, ReplayResult) {
	t.Helper()
	var got []stream.Edge
	res, err := Replay(fsys, dir, after, func(rec Record) error {
		got = append(got, rec.Edges...)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, res
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(1, 1000)
	for i := 0; i < len(edges); i += 100 {
		last, err := w.Append(KindEdge, edges[i:i+100])
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 100); last != want {
			t.Fatalf("lastSeq = %d, want %d", last, want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collectReplay(t, nil, dir, 0)
	if len(got) != len(edges) {
		t.Fatalf("replayed %d edges, want %d", len(got), len(edges))
	}
	for i := range got {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], edges[i])
		}
	}
	if res.LastSeq != 1000 || res.TruncatedBytes != 0 {
		t.Fatalf("replay result = %+v", res)
	}
}

func TestReplayAfterSkipsPrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(2, 100)
	for i := 0; i < 100; i += 10 {
		if _, err := w.Append(KindEdge, edges[i:i+10]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// A boundary inside a record: record [31,40] must be trimmed to 36….
	got, res := collectReplay(t, nil, dir, 35)
	if len(got) != 65 {
		t.Fatalf("replayed %d edges after 35, want 65", len(got))
	}
	if got[0] != edges[35] {
		t.Fatalf("first replayed edge = %+v, want %+v", got[0], edges[35])
	}
	if res.LastSeq != 100 {
		t.Fatalf("LastSeq = %d", res.LastSeq)
	}
}

func TestReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(3, 40)
	if _, err := w.Append(KindEdge, edges[:25]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.LastSeq(); got != 25 {
		t.Fatalf("reopened LastSeq = %d, want 25", got)
	}
	last, err := w.Append(KindEdge, edges[25:])
	if err != nil {
		t.Fatal(err)
	}
	if last != 40 {
		t.Fatalf("lastSeq after reopen append = %d, want 40", last)
	}
	w.Close()
	got, _ := collectReplay(t, nil, dir, 0)
	if len(got) != 40 {
		t.Fatalf("replayed %d edges, want 40", len(got))
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every ~3 records rotates.
	w, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(4, 200)
	for i := 0; i < 200; i += 5 {
		if _, err := w.Append(KindEdge, edges[i:i+5]); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}
	if st.Rotations != int64(st.Segments-1) {
		t.Fatalf("rotations %d vs segments %d", st.Rotations, st.Segments)
	}
	// Everything replays across segment boundaries.
	got, _ := collectReplay(t, nil, dir, 0)
	if len(got) != 200 {
		t.Fatalf("replayed %d edges, want 200", len(got))
	}
	// Prune to seq 100: all segments fully ≤ 100 removed, log still
	// replays [101, 200] and stays appendable.
	removed, err := w.Prune(100)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("prune removed nothing")
	}
	got, _ = collectReplay(t, nil, dir, 100)
	if len(got) != 100 || got[0] != edges[100] {
		t.Fatalf("post-prune replay: %d edges, first %+v", len(got), got[0])
	}
	if _, err := w.Append(KindEdge, edges[:1]); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(5, 30)
	if _, err := w.Append(KindEdge, edges[:20]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, _ := listSegments(OSFS{}, dir)
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 7 bytes.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if got := w.LastSeq(); got != 0 {
		t.Fatalf("LastSeq after torn single record = %d, want 0", got)
	}
	// The log must accept appends after the truncated tail.
	if _, err := w.Append(KindEdge, edges[20:]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, _ := collectReplay(t, nil, dir, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d edges, want 10", len(got))
	}
}

func TestReplayStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(6, 30)
	for i := 0; i < 30; i += 10 {
		if _, err := w.Append(KindEdge, edges[i:i+10]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := listSegments(OSFS{}, dir)
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	recLen := recHeaderSize + 5 + 10*edgeSize
	data[segHeaderSize+recLen+recHeaderSize+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := collectReplay(t, nil, dir, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d edges before corruption, want 10", len(got))
	}
	if res.TruncatedBytes != int64(2*recLen) {
		t.Fatalf("TruncatedBytes = %d, want %d", res.TruncatedBytes, 2*recLen)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := NewFaultFS()
			w, err := Open("/wal", Options{FS: fs, Fsync: policy, FsyncInterval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			edges := testEdges(7, 50)
			if _, err := w.Append(KindEdge, edges); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			switch policy {
			case FsyncAlways:
				if st.Fsyncs == 0 {
					t.Fatal("always policy never fsynced")
				}
			case FsyncInterval:
				deadline := time.Now().Add(2 * time.Second)
				for w.Stats().Fsyncs == 0 {
					if time.Now().After(deadline) {
						t.Fatal("interval policy never fsynced")
					}
					time.Sleep(5 * time.Millisecond)
				}
			case FsyncNever:
				if st.Fsyncs != 0 {
					t.Fatalf("never policy fsynced %d times on append", st.Fsyncs)
				}
			}
			w.Close()
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"never", FsyncNever}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestHealthyReportsFsyncFailure(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(8, 10)
	if _, err := w.Append(KindEdge, edges); err != nil {
		t.Fatal(err)
	}
	if ok, _ := w.Healthy(); !ok {
		t.Fatal("healthy WAL reported unhealthy")
	}
	fs.SetSyncError(errors.New("disk on fire"))
	if _, err := w.Append(KindEdge, edges); err == nil {
		t.Fatal("append with failing fsync should error under always policy")
	}
	if ok, reason := w.Healthy(); ok || reason == "" {
		t.Fatalf("Healthy() = %v, %q after fsync failure", ok, reason)
	}
	fs.SetSyncError(nil)
	waitHealthy(t, w, 5*time.Second)
	if _, err := w.Append(KindEdge, edges); err != nil {
		t.Fatal(err)
	}
	if ok, _ := w.Healthy(); !ok {
		t.Fatal("health did not recover after successful fsync")
	}
	w.Close()
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	fs := NewFaultFS()
	dir := "/snaps"
	payload1 := []byte("store image one")
	payload2 := []byte("store image two, newer")
	write := func(seq uint64, payload []byte) {
		t.Helper()
		err := WriteSnapshot(fs, dir, seq, func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	write(100, payload1)
	write(200, payload2)

	load := func() (uint64, []byte, []string, error) {
		var got []byte
		seq, skipped, err := LoadNewestSnapshot(fs, dir, func(r io.Reader) error {
			var err error
			got, err = io.ReadAll(r)
			return err
		})
		return seq, got, skipped, err
	}
	seq, got, skipped, err := load()
	if err != nil || seq != 200 || !bytes.Equal(got, payload2) || len(skipped) != 0 {
		t.Fatalf("load = %d %q %v %v", seq, got, skipped, err)
	}

	// Corrupt the newest snapshot: loading falls back to the older one.
	name := filepath.Join(dir, snapName(200))
	data, _ := fs.ReadFile(name)
	data[len(data)-6] ^= 0xff
	f, _ := fs.Create(name)
	f.Write(data)
	f.Sync()
	f.Close()
	seq, got, skipped, err = load()
	if err != nil || seq != 100 || !bytes.Equal(got, payload1) {
		t.Fatalf("fallback load = %d %q %v", seq, got, err)
	}
	if len(skipped) != 1 {
		t.Fatalf("skipped = %v, want the corrupt newest", skipped)
	}

	// Truncated snapshot: also skipped, not fatal.
	f, _ = fs.Create(name)
	f.Write(data[:10])
	f.Sync()
	f.Close()
	if seq, _, _, err = load(); err != nil || seq != 100 {
		t.Fatalf("truncated-newest load = %d, %v", seq, err)
	}

	// No valid snapshot at all.
	fs2 := NewFaultFS()
	fs2.MkdirAll("/empty")
	if _, _, err := LoadNewestSnapshot(fs2, "/empty", func(io.Reader) error { return nil }); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}
}

func TestPruneSnapshots(t *testing.T) {
	fs := NewFaultFS()
	dir := "/snaps"
	for _, seq := range []uint64{10, 20, 30} {
		if err := WriteSnapshot(fs, dir, seq, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "image %d", seq)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PruneSnapshots(fs, dir, 30)
	if err != nil || removed != 2 {
		t.Fatalf("PruneSnapshots = %d, %v", removed, err)
	}
	seq, _, err := LoadNewestSnapshot(fs, dir, func(r io.Reader) error { return nil })
	if err != nil || seq != 30 {
		t.Fatalf("after prune: seq %d, %v", seq, err)
	}
}

func TestWriteFileAtomicCrashSemantics(t *testing.T) {
	fs := NewFaultFS()
	fs.MkdirAll("/d")
	path := "/d/ckpt"
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(WriteFileAtomic(fs, path, func(w io.Writer) error {
		_, err := w.Write([]byte("version 1"))
		return err
	}))
	// Crash right after a second atomic write: either image is fine, a
	// torn one is not. FaultFS reverts the un-dir-synced rename, so the
	// surviving file must be version 1, intact.
	fs2 := NewFaultFS()
	fs2.MkdirAll("/d")
	must(WriteFileAtomic(fs2, path, func(w io.Writer) error {
		_, err := w.Write([]byte("version 1"))
		return err
	}))
	// Re-do the write but crash before the dir sync: simulate by doing
	// the steps by hand minus SyncDir.
	f, err := fs2.Create(path + ".tmp")
	must(err)
	f.Write([]byte("version 2"))
	must(f.Sync())
	must(f.Close())
	must(fs2.Rename(path+".tmp", path))
	fs2.Crash(fs2.TotalWritten())
	fs2.Restart()
	data, err := fs2.ReadFile(path)
	must(err)
	if string(data) != "version 1" {
		t.Fatalf("after crash before dir sync: %q, want the old image", data)
	}

	// With the full helper (including SyncDir), the new image survives
	// a crash immediately after.
	must(WriteFileAtomic(fs2, path, func(w io.Writer) error {
		_, err := w.Write([]byte("version 3"))
		return err
	}))
	fs2.Crash(0) // harshest: volatile bytes all lost
	fs2.Restart()
	data, err = fs2.ReadFile(path)
	must(err)
	if string(data) != "version 3" {
		t.Fatalf("after crash post-SyncDir: %q, want version 3", data)
	}
}

func TestAppendAfterCloseAndEmptyAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(KindEdge, nil); err == nil {
		t.Fatal("empty append accepted")
	}
	w.Close()
	if _, err := w.Append(KindEdge, testEdges(9, 1)); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenWithNextSeqContinuesFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NextSeq: 501})
	if err != nil {
		t.Fatal(err)
	}
	last, err := w.Append(KindEdge, testEdges(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if last != 510 {
		t.Fatalf("lastSeq = %d, want 510", last)
	}
	w.Close()
	got, _ := collectReplay(t, nil, dir, 500)
	if len(got) != 10 {
		t.Fatalf("replayed %d, want 10", len(got))
	}
}

func TestLargeAppendSplitsRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(11, maxRecordEdges+100)
	if _, err := w.Append(KindEdge, edges); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Records != 2 || st.Appends != 1 {
		t.Fatalf("stats = %+v, want 2 records from 1 append", st)
	}
	w.Close()
	got, _ := collectReplay(t, nil, dir, 0)
	if len(got) != len(edges) {
		t.Fatalf("replayed %d, want %d", len(got), len(edges))
	}
}

func TestAppendRecoversAfterWriteFailure(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch1 := testEdges(1, 20)
	if _, err := w.Append(KindEdge, batch1); err != nil {
		t.Fatal(err)
	}

	// The next append short-writes 10 bytes of its record and fails:
	// the segment now ends in a partial record and the buffered writer
	// is sticky-failed.
	fs.FailWritesAfter(fs.TotalWritten() + 10)
	if _, err := w.Append(KindEdge, testEdges(2, 20)); err == nil {
		t.Fatal("append through failing writes should error")
	}
	fs.FailWritesAfter(-1)

	// Once the disk works again the healer must recover the WAL: cut the
	// partial record away, and appends go on.
	waitHealthy(t, w, 5*time.Second)
	batch3 := testEdges(3, 20)
	last, err := w.Append(KindEdge, batch3)
	if err != nil {
		t.Fatalf("append after write failure cleared: %v", err)
	}
	if want := uint64(60); last != want {
		t.Errorf("last seq = %d, want %d (failed batch keeps its numbers)", last, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay sees batch 1 and batch 3 intact; the failed batch's edges
	// were never acknowledged and never hit the log.
	got, res := collectReplay(t, fs, "/wal", 0)
	want := append(append([]stream.Edge(nil), batch1...), batch3...)
	if len(got) != len(want) {
		t.Fatalf("replayed %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if res.TruncatedBytes != 0 {
		t.Errorf("truncated %d bytes, want 0 (recovery already cut the partial record)", res.TruncatedBytes)
	}
	if res.LastSeq != 60 {
		t.Errorf("replay last seq = %d, want 60", res.LastSeq)
	}
}
