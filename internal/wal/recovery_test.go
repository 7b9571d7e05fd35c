package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"linkpred/internal/core"
	"linkpred/internal/stream"
)

// Crash-recovery property tests. The property: for ANY injected crash
// point during ingest+checkpoint — at a record boundary, mid-record,
// or mid-snapshot — restart recovers a store that is (a) at least as
// long as the acknowledged prefix (acknowledged edges are never lost)
// and (b) *bit-identical* to a fresh sequential store fed exactly the
// recovered prefix of the stream, which makes every query answer equal
// by construction (and is spot-checked on all six measures anyway).

var recoveryCfg = core.Config{K: 8, Seed: 7}

const recoveryShards = 4

// driveResult records what one ingest run acknowledged and where the
// interesting crash points lie on the global written-bytes axis.
type driveResult struct {
	acked      int     // edges acknowledged (durable: fsync=always)
	boundaries []int64 // TotalWritten after each acknowledged batch
	ckptSpans  [][2]int64
	completed  bool
}

// drive ingests edges through a Durable (batches of `batch` edges, a
// checkpoint every ckptEvery batches) until done or the first injected
// failure. Deterministic: the same fs state and failure point always
// produce the same acknowledged prefix.
func drive(t *testing.T, fs *FaultFS, edges []stream.Edge, batch, ckptEvery int) driveResult {
	t.Helper()
	store, err := core.NewSharded(recoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, SegmentBytes: 16 << 10})
	if err != nil {
		// Failure injected before the log could even be created.
		return driveResult{}
	}
	d := NewDurable(w, "/wal", KindEdge, store.Save)
	apply := func(b []stream.Edge) { store.ProcessEdges(b) }
	var res driveResult
	for i, nb := 0, 0; i < len(edges); i, nb = i+batch, nb+1 {
		hi := i + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := d.Ingest(edges[i:hi], apply); err != nil {
			return res
		}
		res.acked = hi
		res.boundaries = append(res.boundaries, fs.TotalWritten())
		if ckptEvery > 0 && nb%ckptEvery == ckptEvery-1 {
			pre := fs.TotalWritten()
			if err := d.Checkpoint(); err != nil {
				return res
			}
			res.ckptSpans = append(res.ckptSpans, [2]int64{pre, fs.TotalWritten()})
		}
	}
	res.completed = true
	return res
}

// recoverStore rebuilds a sharded store from the (restarted) fs and
// returns it with the recovery result.
func recoverStore(t *testing.T, fs *FaultFS) (*core.Sharded, RecoverResult) {
	t.Helper()
	store, err := core.NewSharded(recoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(fs, "/wal", func(r io.Reader) error {
		s, err := core.LoadSharded(r)
		if err != nil {
			return err
		}
		store = s
		return nil
	}, func(rec Record) error {
		store.ProcessEdges(rec.Edges)
		return nil
	})
	if err != nil {
		t.Fatalf("recover: %v\n%s", err, fs.Dump())
	}
	return store, res
}

// referenceStore is a fresh sequential store fed exactly edges.
func referenceStore(t *testing.T, edges []stream.Edge) *core.Sharded {
	t.Helper()
	ref, err := core.NewSharded(recoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) > 0 {
		ref.ProcessEdges(edges)
	}
	return ref
}

func saveBytes(t *testing.T, s *core.Sharded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkMeasures compares all six estimators on a sample of pairs.
func checkMeasures(t *testing.T, got, want *core.Sharded, edges []stream.Edge) {
	t.Helper()
	type est struct {
		name string
		fn   func(*core.Sharded, uint64, uint64) float64
	}
	ests := []est{
		{"jaccard", (*core.Sharded).EstimateJaccard},
		{"common-neighbors", (*core.Sharded).EstimateCommonNeighbors},
		{"adamic-adar", (*core.Sharded).EstimateAdamicAdar},
		{"resource-allocation", (*core.Sharded).EstimateResourceAllocation},
		{"preferential-attachment", (*core.Sharded).EstimatePreferentialAttachment},
		{"cosine", (*core.Sharded).EstimateCosine},
	}
	for i := 0; i < len(edges) && i < 64; i += 7 {
		u, v := edges[i].U, edges[i].V
		for _, e := range ests {
			g, w := e.fn(got, u, v), e.fn(want, u, v)
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s(%d,%d) = %v, reference %v", e.name, u, v, g, w)
			}
		}
	}
}

// crashAndRecover runs one full crash experiment: re-drive the ingest
// against a fresh FaultFS that fail-stops at global byte k, power-cut
// keeping volatile bytes below keep, restart, recover, and verify the
// two-part property.
func crashAndRecover(t *testing.T, edges []stream.Edge, batch, ckptEvery int, k int64, keepAllWritten bool) {
	t.Helper()
	fs := NewFaultFS()
	fs.FailWritesAfter(k)
	res := drive(t, fs, edges, batch, ckptEvery)
	keep := int64(0)
	if keepAllWritten {
		keep = k
	}
	fs.Crash(keep)
	fs.Restart()
	store, rec := recoverStore(t, fs)

	lastSeq := rec.LastSeq()
	if lastSeq < uint64(res.acked) {
		t.Fatalf("crash at byte %d (keep=%d): recovered seq %d < acknowledged %d\n%s",
			k, keep, lastSeq, res.acked, fs.Dump())
	}
	if lastSeq > uint64(len(edges)) {
		t.Fatalf("recovered seq %d beyond stream length %d", lastSeq, len(edges))
	}
	ref := referenceStore(t, edges[:lastSeq])
	if !bytes.Equal(saveBytes(t, store), saveBytes(t, ref)) {
		t.Fatalf("crash at byte %d (keep=%d, recovered seq %d): recovered store differs from sequential reference\n%s",
			k, keep, lastSeq, fs.Dump())
	}
}

// TestCrashRecoveryEveryBoundary is the headline property test: crash
// at every acknowledged-batch boundary (and just inside the following
// record, and in the middle of every snapshot write), under both
// power-loss models (page cache flushed up to the crash byte, or
// nothing beyond fsync), and verify recovery equivalence each time.
func TestCrashRecoveryEveryBoundary(t *testing.T) {
	nEdges, batch, ckptEvery := 10000, 64, 32
	stride := 1
	if testing.Short() {
		nEdges, stride = 2000, 4
	}
	edges := testEdges(42, nEdges)

	// Reference run (no failures) to chart the crash axis.
	base := NewFaultFS()
	plan := drive(t, base, edges, batch, ckptEvery)
	if !plan.completed {
		t.Fatal("reference run did not complete")
	}

	var points []int64
	points = append(points, 0) // crash before anything was written
	for i := 0; i < len(plan.boundaries); i += stride {
		b := plan.boundaries[i]
		points = append(points, b)                 // exact record boundary
		points = append(points, b+recHeaderSize+3) // torn mid-record
		points = append(points, b-1)               // one byte short of the boundary
	}
	for _, span := range plan.ckptSpans {
		points = append(points, (span[0]+span[1])/2) // mid-snapshot
		points = append(points, span[1]-1)           // just before checkpoint completion
	}
	points = append(points, base.TotalWritten()+1) // no crash at all

	for _, k := range points {
		crashAndRecover(t, edges, batch, ckptEvery, k, true)
		crashAndRecover(t, edges, batch, ckptEvery, k, false)
	}
}

// TestCrashRecoveryMeasures drills into a handful of crash points and
// verifies all six measures agree between recovered and reference
// stores (belt and braces on top of byte-identity).
func TestCrashRecoveryMeasures(t *testing.T) {
	edges := testEdges(43, 3000)
	base := NewFaultFS()
	plan := drive(t, base, edges, 64, 16)
	if len(plan.boundaries) < 10 || len(plan.ckptSpans) == 0 {
		t.Fatalf("unexpected plan: %d boundaries, %d checkpoints", len(plan.boundaries), len(plan.ckptSpans))
	}
	points := []int64{
		plan.boundaries[3],
		plan.boundaries[len(plan.boundaries)/2] + 11,
		(plan.ckptSpans[0][0] + plan.ckptSpans[0][1]) / 2,
	}
	for _, k := range points {
		fs := NewFaultFS()
		fs.FailWritesAfter(k)
		res := drive(t, fs, edges, 64, 16)
		fs.Crash(k)
		fs.Restart()
		store, rec := recoverStore(t, fs)
		if rec.LastSeq() < uint64(res.acked) {
			t.Fatalf("lost acknowledged edges at crash byte %d", k)
		}
		ref := referenceStore(t, edges[:rec.LastSeq()])
		checkMeasures(t, store, ref, edges)
	}
}

// TestRecoverySnapshotPlusTail checks the normal restart path on the
// real filesystem: ingest, checkpoint, ingest more, close; recover and
// compare bit-identically; then verify pruning kept the directory
// bounded.
func TestRecoverySnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	edges := testEdges(44, 5000)
	store, err := core.NewSharded(recoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, dir, KindEdge, store.Save)
	apply := func(b []stream.Edge) { store.ProcessEdges(b) }
	if err := d.Ingest(edges[:3000], apply); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(edges[3000:], apply); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := core.NewSharded(recoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(nil, dir, func(r io.Reader) error {
		s, err := core.LoadSharded(r)
		if err == nil {
			recovered = s
		}
		return err
	}, func(rec Record) error {
		recovered.ProcessEdges(rec.Edges)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotLoaded || res.LastSeq() != 5000 {
		t.Fatalf("recovery result %+v", res)
	}
	ref := referenceStore(t, edges)
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, ref)) {
		t.Fatal("recovered store differs from reference")
	}

	// Close checkpoints at seq 5000, so older snapshots and all fully
	// covered segments must be gone.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, segs := 0, 0
	for _, n := range names {
		if _, ok := parseSnapName(n.Name()); ok {
			snaps++
		}
		if _, ok := parseSegName(n.Name()); ok {
			segs++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots after close, want 1", snaps)
	}
	if segs != 1 {
		t.Fatalf("%d segments after final checkpoint, want 1 (the live one)", segs)
	}
}

// TestRecoveryCorruptTrailingBytes: garbage appended to the newest
// segment — from a torn write or a disk error — is truncated, never
// fatal, and the valid prefix recovers in full.
func TestRecoveryCorruptTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	edges := testEdges(45, 1000)
	store, _ := core.NewSharded(recoveryCfg, recoveryShards)
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, dir, KindEdge, store.Save)
	if err := d.Ingest(edges, func(b []stream.Edge) { store.ProcessEdges(b) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(OSFS{}, dir)
	path := filepath.Join(dir, segs[len(segs)-1].name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("garbage garbage garbage"))
	f.Close()

	recovered, _ := core.NewSharded(recoveryCfg, recoveryShards)
	res, err := Recover(nil, dir, func(r io.Reader) error {
		s, err := core.LoadSharded(r)
		if err == nil {
			recovered = s
		}
		return err
	}, func(rec Record) error {
		recovered.ProcessEdges(rec.Edges)
		return nil
	})
	if err != nil {
		t.Fatalf("recover over corrupt tail: %v", err)
	}
	if res.LastSeq() != 1000 {
		t.Fatalf("recovered seq %d, want 1000", res.LastSeq())
	}
	if res.Replay.TruncatedBytes == 0 {
		t.Fatal("corrupt tail not reported")
	}
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, referenceStore(t, edges))) {
		t.Fatal("recovered store differs from reference")
	}
	// And the log remains appendable: Open truncates the garbage.
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.LastSeq() != 1000 {
		t.Fatalf("reopened LastSeq %d", w.LastSeq())
	}
	if _, err := w.Append(KindEdge, edges[:5]); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// TestRecoveryCorruptSnapshotOverPrunedLog: a checkpoint prunes the log
// its snapshot covers, so when that snapshot later fails its checksum,
// falling back to an empty store plus what is left of the log would
// serve a store missing acknowledged edges. Recovery must refuse and
// name the snapshot. With the log intact behind the snapshot — it still
// starts at seq 1 — the fallback replays everything and is exact.
func TestRecoveryCorruptSnapshotOverPrunedLog(t *testing.T) {
	edges := testEdges(47, 6000)
	for _, tc := range []struct {
		name     string
		segBytes int64
		pruned   bool
	}{
		{"pruned", 16 << 10, true},
		{"intact", 1 << 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFaultFS()
			store, err := core.NewSharded(recoveryCfg, recoveryShards)
			if err != nil {
				t.Fatal(err)
			}
			w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, SegmentBytes: tc.segBytes})
			if err != nil {
				t.Fatal(err)
			}
			d := NewDurable(w, "/wal", KindEdge, store.Save)
			apply := func(b []stream.Edge) { store.ProcessEdges(b) }
			for i := 0; i < len(edges); i += 200 {
				if err := d.Ingest(edges[i:i+200], apply); err != nil {
					t.Fatal(err)
				}
				if i+200 == 4000 {
					if err := d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(fs, "/wal")
			if err != nil {
				t.Fatal(err)
			}
			if got := segs[0].firstSeq > 1; got != tc.pruned {
				t.Fatalf("oldest segment starts at seq %d; pruned = %v, want %v", segs[0].firstSeq, got, tc.pruned)
			}

			snap := filepath.Join("/wal", snapName(4000))
			data, err := fs.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			data[snapHeaderSize+len(data)/2] ^= 0x01
			f, err := fs.Create(snap)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(data)
			f.Sync()
			f.Close()

			recovered, err := core.NewSharded(recoveryCfg, recoveryShards)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Recover(fs, "/wal", func(r io.Reader) error {
				t.Error("a snapshot that fails its checksum reached the loader")
				return nil
			}, func(rec Record) error {
				recovered.ProcessEdges(rec.Edges)
				return nil
			})
			if tc.pruned {
				if err == nil || !strings.Contains(err.Error(), snapName(4000)) {
					t.Fatalf("recovery over a pruned log = %+v, %v; want an error naming %s", res, err, snapName(4000))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.SnapshotLoaded || res.LastSeq() != uint64(len(edges)) {
				t.Fatalf("recovery result %+v", res)
			}
			if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, referenceStore(t, edges))) {
				t.Fatal("full replay differs from the reference store")
			}
		})
	}
}

// TestDurableConcurrentIngest exercises the quiesce discipline under
// racing writers and background checkpoints, then proves the recovered
// store matches a sequential reference fed the log's replay order.
func TestDurableConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	edges := testEdges(46, 4000)
	store, _ := core.NewSharded(recoveryCfg, recoveryShards)
	w, err := Open(dir, Options{SegmentBytes: 32 << 10, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, dir, KindEdge, store.Save)
	apply := func(b []stream.Edge) { store.ProcessEdges(b) }
	var wg sync.WaitGroup
	const writers = 4
	per := len(edges) / writers
	for i := 0; i < writers; i++ {
		chunk := edges[i*per : (i+1)*per]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(chunk); lo += 100 {
				hi := lo + 100
				if hi > len(chunk) {
					hi = len(chunk)
				}
				if err := d.Ingest(chunk[lo:hi], apply); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, _ := core.NewSharded(recoveryCfg, recoveryShards)
	res, err := Recover(nil, dir, func(r io.Reader) error {
		s, err := core.LoadSharded(r)
		if err == nil {
			recovered = s
		}
		return err
	}, func(rec Record) error {
		recovered.ProcessEdges(rec.Edges)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastSeq() != uint64(len(edges)) {
		t.Fatalf("recovered %d of %d edges", res.LastSeq(), len(edges))
	}
	// Sketch state is determined by the multiset of edges (register
	// updates commute, counters are additive), so the recovered store —
	// rebuilt from a mid-run snapshot plus WAL tail — must byte-match a
	// sequential reference fed the same edges, and the live store too.
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, referenceStore(t, edges))) {
		t.Fatal("recovered store differs from sequential reference")
	}
	if !bytes.Equal(saveBytes(t, store), saveBytes(t, recovered)) {
		t.Fatal("live store differs from recovered store")
	}
}

// TestDurableHealthDegradesAndRecovers: checkpoint failures surface in
// Healthy and clear on the next success.
func TestDurableHealth(t *testing.T) {
	fs := NewFaultFS()
	store, _ := core.NewSharded(recoveryCfg, recoveryShards)
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, "/wal", KindEdge, store.Save)
	apply := func(b []stream.Edge) { store.ProcessEdges(b) }
	if err := d.Ingest(testEdges(47, 100), apply); err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.Healthy(); !ok {
		t.Fatal("fresh durable unhealthy")
	}
	fs.SetSyncError(errors.New("sync broken"))
	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint with broken sync should fail")
	}
	if ok, reason := d.Healthy(); ok || reason == "" {
		t.Fatalf("Healthy = %v %q after checkpoint failure", ok, reason)
	}
	fs.SetSyncError(nil)
	waitHealthy(t, w, 5*time.Second)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.Healthy(); !ok {
		t.Fatal("health did not clear after successful checkpoint")
	}
	d.Close()
}

// TestRestoreCheckpointsTheReplacement: once Restore has swapped in a
// replacement store, later checkpoints must snapshot the replacement,
// not the store the Durable was built on. Built on store A, restored
// to image B, then fed one batch and checkpointed, the log must recover
// B plus that batch.
func TestRestoreCheckpointsTheReplacement(t *testing.T) {
	fs := NewFaultFS()
	a := referenceStore(t, testEdges(61, 100))
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, "/wal", KindEdge, a.Save)
	live := a
	apply := func(b []stream.Edge) { live.ProcessEdges(b) }
	if err := d.Ingest(testEdges(61, 100), apply); err != nil {
		t.Fatal(err)
	}
	b := referenceStore(t, testEdges(62, 100))
	if err := d.Restore(b.Save, func() { live = b }); err != nil {
		t.Fatal(err)
	}
	batch := testEdges(63, 50)
	if err := d.Ingest(batch, apply); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, res := recoverStore(t, fs)
	want := append(testEdges(62, 100), batch...)
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, referenceStore(t, want))) {
		t.Fatalf("recovered store is not the restored image plus the later batch (recovery %+v)\n%s", res, fs.Dump())
	}
}
