package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"linkpred/internal/core"
	"linkpred/internal/stream"
)

// waitHealthy polls until the WAL exits its degraded episode or the
// deadline passes.
func waitHealthy(t *testing.T, w *WAL, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if !w.HealState().Degraded {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("WAL still degraded after %v: %+v", d, w.HealState())
}

// fastHeal makes the healer repair within milliseconds.
var fastHeal = &HealOptions{Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}

// TestHealerRunsWithoutHealOptions: a log opened with a nil
// Options.Heal runs the healer with the default backoff, so a failed
// append is repaired with no further Append, Sync or Close.
func TestHealerRunsWithoutHealOptions(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fs.FailSyncsN(0, 1, errors.New("injected fsync fault"))
	if _, err := w.Append(KindEdge, testEdges(1, 5)); err == nil {
		t.Fatal("append with a failing fsync should error")
	}
	waitHealthy(t, w, 5*time.Second)
	if heals := w.Stats().Heals; heals != 1 {
		t.Fatalf("Heals = %d, want 1", heals)
	}
}

// TestHealerFlakyWriteLoop drives the healer through many write-fault
// cycles: each iteration appends a batch, injects a sticky write error
// for one failed append, clears it, and waits for the repair. Every
// repair must preserve exactly the acked prefix — no failed append's
// edges may surface on replay, and no acked batch may be lost.
func TestHealerFlakyWriteLoop(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64 // acked batch seeds, in order
	for i := 0; i < 15; i++ {
		ok := testEdges(uint64(i*2+1), 7)
		if _, err := w.Append(KindEdge, ok); err != nil {
			t.Fatalf("iter %d: healthy append: %v", i, err)
		}
		want = append(want, uint64(i*2+1))

		fs.SetWriteError(errors.New("flaky disk"))
		if _, err := w.Append(KindEdge, testEdges(uint64(i*2+2), 7)); err == nil {
			t.Fatalf("iter %d: append with failing write should error", i)
		}
		fs.SetWriteError(nil)
		waitHealthy(t, w, 5*time.Second)
	}
	w.Close()

	got, _ := collectReplay(t, fs, "/wal", 0)
	if len(got) != len(want)*7 {
		t.Fatalf("replay holds %d edges, want %d (acked batches only)", len(got), len(want)*7)
	}
	for bi, seed := range want {
		exp := testEdges(seed, 7)
		for j, e := range exp {
			if got[bi*7+j] != e {
				t.Fatalf("batch %d edge %d: got %+v want %+v", bi, j, got[bi*7+j], e)
			}
		}
	}
}

// TestHealerFlakyDiskLoop is the same flaky-disk loop against the
// self-healing state machine: each injected fsync failure degrades the
// log, writes fast-fail with ErrDegraded while the healer probes, and
// after every heal the durable prefix is exactly the acked appends —
// in particular, the record whose fsync failed (written but never
// acknowledged) must NOT survive.
func TestHealerFlakyDiskLoop(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{
		FS:    fs,
		Fsync: FsyncAlways,
		Heal:  &HealOptions{Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 10
	var want []uint64
	for i := 0; i < iters; i++ {
		ok := testEdges(uint64(i*2+1), 5)
		if _, err := w.Append(KindEdge, ok); err != nil {
			t.Fatalf("iter %d: healthy append: %v", i, err)
		}
		want = append(want, uint64(i*2+1))

		fs.FailSyncsN(0, 1, errors.New("transient fsync failure"))
		if _, err := w.Append(KindEdge, testEdges(uint64(i*2+2), 5)); err == nil {
			t.Fatalf("iter %d: append with failing fsync should error", i)
		}
		// Degraded: the very next write fails fast without touching disk.
		if _, err := w.Append(KindEdge, testEdges(999, 1)); !errors.Is(err, ErrDegraded) {
			t.Fatalf("iter %d: degraded append error = %v, want ErrDegraded", i, err)
		}
		if ok, reason := w.Healthy(); ok || reason == "" {
			t.Fatalf("iter %d: Healthy() = %v, %q while degraded", i, ok, reason)
		}
		waitHealthy(t, w, 2*time.Second)
	}
	st := w.Stats()
	if st.Heals != iters {
		t.Fatalf("Heals = %d, want %d", st.Heals, iters)
	}
	if st.HealAttempts < iters {
		t.Fatalf("HealAttempts = %d, want >= %d", st.HealAttempts, iters)
	}
	if st.DegradedSecs <= 0 {
		t.Fatalf("DegradedSecs = %v, want > 0", st.DegradedSecs)
	}
	w.Close()

	got, _ := collectReplay(t, fs, "/wal", 0)
	if len(got) != len(want)*5 {
		t.Fatalf("replay holds %d edges, want %d (acked appends only — unacked fsync-failed records must not survive a heal)", len(got), len(want)*5)
	}
	for bi, seed := range want {
		exp := testEdges(seed, 5)
		for j, e := range exp {
			if got[bi*5+j] != e {
				t.Fatalf("batch %d edge %d: got %+v want %+v", bi, j, got[bi*5+j], e)
			}
		}
	}
}

// TestHealerSealsWedgedSegment verifies the escalation path: when the
// damaged segment keeps failing probes, the healer seals it at the
// acked prefix and routes appends to a fresh segment instead of
// retrying the same file forever.
func TestHealerSealsWedgedSegment(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{
		FS:    fs,
		Fsync: FsyncAlways,
		Heal:  &HealOptions{Backoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := testEdges(1, 6)
	if _, err := w.Append(KindEdge, acked); err != nil {
		t.Fatal(err)
	}
	rotBefore := w.Stats().Rotations
	// Three failing syncs: the append that degrades the log, then the
	// first two in-place probes. Probe healRotateAfter (the third) seals
	// the segment and starts a fresh one, whose sync succeeds.
	fs.FailSyncsN(0, 3, errors.New("wedged segment"))
	if _, err := w.Append(KindEdge, testEdges(2, 6)); err == nil {
		t.Fatal("append with failing fsync should error")
	}
	waitHealthy(t, w, 5*time.Second)
	if rot := w.Stats().Rotations; rot != rotBefore+1 {
		t.Fatalf("Rotations = %d, want %d (healer should have sealed the wedged segment)", rot, rotBefore+1)
	}
	// The log writes into the fresh segment.
	if _, err := w.Append(KindEdge, testEdges(3, 6)); err != nil {
		t.Fatalf("append after seal-and-rotate heal: %v", err)
	}
	w.Close()

	got, _ := collectReplay(t, fs, "/wal", 0)
	if len(got) != 12 {
		t.Fatalf("replay holds %d edges, want 12 (batches 1 and 3; the unacked batch 2 must be gone)", len(got))
	}
	for j, e := range testEdges(1, 6) {
		if got[j] != e {
			t.Fatalf("sealed-segment edge %d: got %+v want %+v", j, got[j], e)
		}
	}
	for j, e := range testEdges(3, 6) {
		if got[6+j] != e {
			t.Fatalf("fresh-segment edge %d: got %+v want %+v", j, got[6+j], e)
		}
	}
}

// TestHealerDiskFullWindow drives the log through a disk-full window:
// writes shed while the window is open, and once space frees the
// healer restores service with the durable prefix intact.
func TestHealerDiskFullWindow(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{
		FS:    fs,
		Fsync: FsyncAlways,
		Heal:  &HealOptions{Backoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(KindEdge, testEdges(1, 4)); err != nil {
		t.Fatal(err)
	}
	fs.SetDiskFull(true)
	if _, err := w.Append(KindEdge, testEdges(2, 4)); err == nil {
		t.Fatal("append with a full disk should error")
	}
	// While the disk stays full, writes keep failing (either fast-fail
	// degraded or a heal probe that immediately re-degrades on the next
	// append — both are acceptable; what matters is no false ack).
	if _, err := w.Append(KindEdge, testEdges(3, 4)); err == nil {
		t.Fatal("append with a full disk should error")
	}
	fs.SetDiskFull(false)
	waitHealthy(t, w, 5*time.Second)
	if _, err := w.Append(KindEdge, testEdges(4, 4)); err != nil {
		t.Fatalf("append after disk-full window: %v", err)
	}
	w.Close()

	got, _ := collectReplay(t, fs, "/wal", 0)
	if len(got) != 8 {
		t.Fatalf("replay holds %d edges, want 8 (batches 1 and 4)", len(got))
	}
}

// TestHealStateSnapshot checks the observability surface: HealState
// reflects the degraded episode.
func TestHealStateSnapshot(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{
		FS:    fs,
		Fsync: FsyncAlways,
		Heal:  &HealOptions{Backoff: time.Hour}, // never probes during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if hs := w.HealState(); hs.Degraded {
		t.Fatalf("healthy HealState = %+v, want not degraded", hs)
	}
	fs.FailSyncsN(0, 1, errors.New("boom"))
	if _, err := w.Append(KindEdge, testEdges(1, 3)); err == nil {
		t.Fatal("append with failing fsync should error")
	}
	hs := w.HealState()
	if !hs.Degraded || hs.Reason == "" || hs.Since.IsZero() {
		t.Fatalf("degraded HealState = %+v, want reason and since set", hs)
	}
}

// TestRepairReplaysAckedPrefix injects one fault into an append and
// checks the log's one promise about failures: whichever fsync policy
// runs, and whether the healer repairs the log and the run appends
// again, or the run closes at once and Close repairs, a power cut leaves
// a log that replays exactly the acknowledged edges, in order. Close
// must succeed once the fault is clear.
func TestRepairReplaysAckedPrefix(t *testing.T) {
	errFault := errors.New("injected fault")
	// Segment sizes: rotateAfterOne fits one 5-edge append, so the next
	// append rotates; splitRotate fits the first 5-edge append and the
	// first record of a two-record append, but not the second.
	rotateAfterOne := segHeaderSize + recordsBytes(5)
	splitRotate := rotateAfterOne + recordsBytes(maxRecordEdges)
	const twoRecords = maxRecordEdges + 100
	faults := []struct {
		name     string
		segBytes int64 // 0 keeps the default
		edges    int   // edges in the append the fault hits
		arm      func(fs *FaultFS)
	}{
		{"write", 0, 5, func(fs *FaultFS) { fs.FailWritesN(0, 1, errFault) }},
		{"fsync", 0, 5, func(fs *FaultFS) { fs.FailSyncsN(0, 1, errFault) }},
		{"second-record", 0, twoRecords, func(fs *FaultFS) {
			fs.FailWritesAfter(fs.TotalWritten() + recordsBytes(maxRecordEdges) + 10)
		}},
		{"rotate-header", rotateAfterOne, 5, func(fs *FaultFS) { fs.FailWritesN(0, 1, errFault) }},
		{"rotate-fsync", rotateAfterOne, 5, func(fs *FaultFS) { fs.FailSyncsN(0, 1, errFault) }},
		// An append that overflows its segment must not leave its first
		// record durable in the segment it rotated out of.
		{"second-record-after-rotate", splitRotate, twoRecords, func(fs *FaultFS) {
			fs.FailWritesAfter(fs.TotalWritten() + segHeaderSize + recordsBytes(maxRecordEdges) + 10)
		}},
	}
	for _, fault := range faults {
		for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval} {
			for _, ending := range []string{"append", "close"} {
				// Every log runs the healer; heal=true keeps the cell names.
				name := fmt.Sprintf("%s/%s/heal=true/%s", fault.name, policy, ending)
				t.Run(name, func(t *testing.T) {
					fs := NewFaultFS()
					opts := Options{FS: fs, Fsync: policy, FsyncInterval: time.Millisecond, SegmentBytes: fault.segBytes, Heal: fastHeal}
					if ending == "close" {
						opts.Heal = &HealOptions{Backoff: time.Hour} // Close repairs
					}
					w, err := Open("/wal", opts)
					if err != nil {
						t.Fatal(err)
					}
					var acked []stream.Edge
					appendBatch := func(edges []stream.Edge) error {
						_, err := w.Append(KindEdge, edges)
						if err == nil {
							acked = append(acked, edges...)
						}
						return err
					}
					if err := appendBatch(testEdges(1, 5)); err != nil {
						t.Fatal(err)
					}
					// Nothing is left dirty, so the interval timer makes no
					// fsync that could take the fault meant for the append.
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
					fsyncErrs := w.Stats().FsyncErrs
					fault.arm(fs)
					failed := appendBatch(testEdges(2, fault.edges)) != nil
					// Under FsyncInterval an fsync fault hits the timer's
					// fsync, after the append was acknowledged.
					deadline := time.Now().Add(5 * time.Second)
					for !failed && w.Stats().FsyncErrs == fsyncErrs {
						if time.Now().After(deadline) {
							t.Fatal("the injected fault never fired")
						}
						time.Sleep(time.Millisecond)
					}
					fs.ClearFaults()
					if ending == "append" {
						waitHealthy(t, w, 5*time.Second)
						if err := appendBatch(testEdges(3, 5)); err != nil {
							t.Fatalf("append after the fault cleared: %v", err)
						}
					}
					if err := w.Close(); err != nil {
						t.Fatalf("Close after the fault cleared: %v", err)
					}
					fs.Crash(0)
					fs.Restart()
					got, _ := collectReplay(t, fs, "/wal", 0)
					if len(got) != len(acked) {
						t.Fatalf("replay holds %d edges, %d were acknowledged", len(got), len(acked))
					}
					for i := range got {
						if got[i] != acked[i] {
							t.Fatalf("edge %d: got %+v want %+v", i, got[i], acked[i])
						}
					}
				})
			}
		}
	}
}

// TestRepairOnDurableClose is lpserver's shutdown during a degraded
// episode: its default healer has not probed yet when Durable.Close
// runs, so Close itself must drop the record whose fsync failed before
// the final sync would make it durable.
func TestRepairOnDurableClose(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: &HealOptions{Backoff: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewSharded(recoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, "/wal", KindEdge, store.Save)
	apply := func(b []stream.Edge) { store.ProcessEdges(b) }
	acked := testEdges(1, 5)
	if err := d.Ingest(acked, apply); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncsN(0, 1, errors.New("injected fsync fault"))
	if err := d.Ingest(testEdges(2, 5), apply); err == nil {
		t.Fatal("ingest with a failing fsync should error")
	}
	d.Close() // its checkpoint fails while the log is degraded
	fs.Crash(0)
	fs.Restart()
	recovered, res := recoverStore(t, fs)
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, referenceStore(t, acked))) {
		t.Fatalf("recovered store differs from one fed the %d acknowledged edges (recovery %+v)", len(acked), res)
	}
}

// TestFailedRotateLeavesNoSegment: a rotation whose new segment cannot
// be made durable must not leave that file behind. It is named after
// the next sequence number, so once a smaller append fits the old
// segment and takes that number, a reopened log would resume from the
// empty file and hand out acknowledged sequence numbers again.
func TestFailedRotateLeavesNoSegment(t *testing.T) {
	fs := NewFaultFS()
	// One 5-edge append fills a segment; a 1-edge append still fits.
	opts := Options{FS: fs, Fsync: FsyncAlways, SegmentBytes: segHeaderSize + recordsBytes(5) + recordsBytes(1), Heal: fastHeal}
	w, err := Open("/wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(KindEdge, testEdges(1, 5)); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncsN(1, 1, errors.New("injected fsync fault")) // the new segment's header
	if _, err := w.Append(KindEdge, testEdges(2, 5)); err == nil {
		t.Fatal("append whose rotation fails should error")
	}
	waitHealthy(t, w, 5*time.Second)
	last, err := w.Append(KindEdge, testEdges(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = Open("/wal", opts); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.LastSeq(); got != last {
		t.Fatalf("reopened log resumes after seq %d, want %d\n%s", got, last, fs.Dump())
	}
}

// TestCheckpointAfterRepairKeepsLaterEdges: a repair cuts a failed
// append, whose sequence numbers stay consumed, and a checkpoint after
// the repair is stamped with them. A log reopened from that checkpoint
// must not hand those numbers out again: replay skips every record at
// or below the snapshot, so the edges acknowledged after the restart
// would be gone from the next recovery.
func TestCheckpointAfterRepairKeepsLaterEdges(t *testing.T) {
	t.Run("heal=true", func(t *testing.T) {
		fs := NewFaultFS()
		opts := Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal}
		w, err := Open("/wal", opts)
		if err != nil {
			t.Fatal(err)
		}
		store, err := core.NewSharded(recoveryCfg, recoveryShards)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDurable(w, "/wal", KindEdge, store.Save)
		apply := func(b []stream.Edge) { store.ProcessEdges(b) }
		acked := testEdges(1, 5)
		if err := d.Ingest(acked, apply); err != nil {
			t.Fatal(err)
		}
		fs.FailSyncsN(0, 1, errors.New("injected fsync fault"))
		if err := d.Ingest(testEdges(2, 5), apply); err == nil {
			t.Fatal("ingest with a failing fsync should error")
		}
		waitHealthy(t, w, 5*time.Second)
		// Close checkpoints after the repair: the snapshot's sequence
		// number counts the cut append.
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		store, res := recoverStore(t, fs)
		opts.NextSeq = res.LastSeq() + 1
		if w, err = Open("/wal", opts); err != nil {
			t.Fatal(err)
		}
		d = NewDurable(w, "/wal", KindEdge, store.Save)
		later := testEdges(3, 5)
		if err := d.Ingest(later, apply); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, later...)
		fs.Crash(0)
		w.Close() // stops the log's goroutines; the disk is gone
		fs.Restart()
		recovered, res := recoverStore(t, fs)
		if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, referenceStore(t, acked))) {
			t.Fatalf("recovered store differs from one fed the %d acknowledged edges (recovery %+v)\n%s", len(acked), res, fs.Dump())
		}
	})
}

// repairFS wraps a FaultFS for the repair tests: it can fail the next
// Open, and it records every truncation that no later Sync of the same
// file made durable — FaultFS itself counts a truncation as durable at
// once.
type repairFS struct {
	*FaultFS
	mu        sync.Mutex
	openFault bool
	readAfter int64
	unsynced  map[string]bool
}

func newRepairFS() *repairFS {
	return &repairFS{FaultFS: NewFaultFS(), unsynced: make(map[string]bool)}
}

// failNextOpen fails the next Open at once when readAfter is negative,
// or makes its reads fail after readAfter bytes.
func (r *repairFS) failNextOpen(readAfter int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.openFault, r.readAfter = true, readAfter
}

func (r *repairFS) Open(name string) (ReadAtCloser, error) {
	r.mu.Lock()
	fault, after := r.openFault, r.readAfter
	r.openFault = false
	r.mu.Unlock()
	if !fault {
		return r.FaultFS.Open(name)
	}
	errIO := fmt.Errorf("%s: input/output error", name)
	if after < 0 {
		return nil, errIO
	}
	rc, err := r.FaultFS.Open(name)
	if err != nil {
		return nil, err
	}
	return failingFile{rc, io.MultiReader(io.LimitReader(rc, after), iotest.ErrReader(errIO)), after, errIO}, nil
}

// failingFile is an open file whose reads fail from byte after on.
type failingFile struct {
	ReadAtCloser
	r     io.Reader
	after int64
	err   error
}

func (f failingFile) Read(p []byte) (int, error) { return f.r.Read(p) }

func (f failingFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) <= f.after {
		return f.ReadAtCloser.ReadAt(p, off)
	}
	n, _ := f.ReadAtCloser.ReadAt(p[:max(f.after-off, 0)], off)
	return n, f.err
}

func (r *repairFS) Truncate(name string, size int64) error {
	err := r.FaultFS.Truncate(name, size)
	if err == nil {
		r.mu.Lock()
		r.unsynced[name] = true
		r.mu.Unlock()
	}
	return err
}

func (r *repairFS) OpenAppend(name string) (File, error) {
	f, err := r.FaultFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &repairFile{File: f, fs: r, name: name}, nil
}

// unsyncedCuts lists the files whose last truncation is not yet durable.
func (r *repairFS) unsyncedCuts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.unsynced {
		names = append(names, name)
	}
	return names
}

type repairFile struct {
	File
	fs   *repairFS
	name string
}

func (f *repairFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.fs.mu.Lock()
		delete(f.fs.unsynced, f.name)
		f.fs.mu.Unlock()
	}
	return err
}

// damageHeader flips a byte of the segment header of name, as media
// damage would.
func damageHeader(fs *FaultFS, name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	mf := fs.files[name]
	data := mf.contents()
	data[0] ^= 0xff
	mf.durable, mf.volatile = data, nil
}

// checkReplay power-cuts fs and checks that the log under /wal replays
// exactly want, in order.
func checkReplay(t *testing.T, fs *FaultFS, want []stream.Edge) {
	t.Helper()
	fs.Crash(0)
	fs.Restart()
	got, _ := collectReplay(t, fs, "/wal", 0)
	if len(got) != len(want) {
		t.Fatalf("replay holds %d edges, want %d\n%s", len(got), len(want), fs.Dump())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestRepairRetriesUnreadableSegment: a repair that cannot open or
// read the current segment learns nothing about its bytes, so it must
// fail and retry, neither quarantining the segment nor cutting it where
// the read failed, with acknowledged records on both sides.
func TestRepairRetriesUnreadableSegment(t *testing.T) {
	faults := []struct {
		name      string
		readAfter int64
	}{
		{"open", -1},
		{"read", segHeaderSize + recordsBytes(5) + 10}, // inside the second record
	}
	for _, fault := range faults {
		t.Run(fault.name+"/heal=true", func(t *testing.T) {
			fs := newRepairFS()
			w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal})
			if err != nil {
				t.Fatal(err)
			}
			var acked []stream.Edge
			for seed := uint64(1); seed <= 2; seed++ {
				edges := testEdges(seed, 5)
				if _, err := w.Append(KindEdge, edges); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, edges...)
			}
			fs.failNextOpen(fault.readAfter)
			fs.FailSyncsN(0, 1, errors.New("injected fsync fault"))
			if _, err := w.Append(KindEdge, testEdges(3, 5)); err == nil {
				t.Fatal("append with a failing fsync should error")
			}
			waitHealthy(t, w, 5*time.Second)
			later := testEdges(5, 5)
			if _, err := w.Append(KindEdge, later); err != nil {
				t.Fatalf("append once the segment reads again: %v", err)
			}
			acked = append(acked, later...)
			if q := w.Stats().Quarantined; q != 0 {
				t.Fatalf("Quarantined = %d after a failed %s, want 0", q, fault.name)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			checkReplay(t, fs.FaultFS, acked)
		})
	}
}

// TestRepairQuarantineSurvivesFailedStart: a repair quarantines a
// current segment whose header is damaged, and then fails to start the
// fresh segment. The next repair must start it, not rescan whatever
// segment came before the quarantined one, and the log must go on to
// replay exactly what was acknowledged outside the quarantined segment.
func TestRepairQuarantineSurvivesFailedStart(t *testing.T) {
	for _, segments := range []int{1, 2} {
		t.Run(fmt.Sprintf("segments=%d/heal=true", segments), func(t *testing.T) {
			fs := NewFaultFS()
			// One 5-edge append fills a segment.
			w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, SegmentBytes: segHeaderSize + recordsBytes(5), Heal: fastHeal})
			if err != nil {
				t.Fatal(err)
			}
			var acked []stream.Edge
			first := testEdges(1, 5)
			if _, err := w.Append(KindEdge, first); err != nil {
				t.Fatal(err)
			}
			if segments == 2 {
				// Kept in the first segment. The append that rotates
				// is shorter, so the second segment's acknowledged
				// prefix ends before the first segment's does.
				acked = append(acked, first...)
				if _, err := w.Append(KindEdge, testEdges(2, 1)); err != nil {
					t.Fatal(err)
				}
			}
			w.mu.Lock()
			current := filepath.Join("/wal", w.segments[len(w.segments)-1].name)
			w.mu.Unlock()
			damageHeader(fs, current)
			// The append's fsync fails, and so does the first
			// repair's start of a fresh segment.
			fs.FailSyncsN(0, 2, errors.New("injected fsync fault"))
			if _, err := w.Append(KindEdge, testEdges(3, 5)); err == nil {
				t.Fatal("append with a failing fsync should error")
			}
			waitHealthy(t, w, 5*time.Second)
			later := testEdges(5, 5)
			if _, err := w.Append(KindEdge, later); err != nil {
				t.Fatalf("append after the quarantine: %v", err)
			}
			acked = append(acked, later...)
			if q := w.Stats().Quarantined; q != 1 {
				t.Fatalf("Quarantined = %d, want 1", q)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Stat(current + ".quarantined"); err != nil {
				t.Fatalf("quarantined bytes not kept: %v\n%s", err, fs.Dump())
			}
			checkReplay(t, fs, acked)
		})
	}
}

// TestRepairSealFsyncsCut: a repair that seals a wedged segment cuts it
// back to the acknowledged prefix. The cut must be durable before the
// log moves on to a fresh segment, or a power cut could bring the
// unacknowledged records back.
func TestRepairSealFsyncsCut(t *testing.T) {
	t.Run("heal=true", func(t *testing.T) {
		fs := newRepairFS()
		w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, Heal: fastHeal})
		if err != nil {
			t.Fatal(err)
		}
		acked := testEdges(1, 5)
		if _, err := w.Append(KindEdge, acked); err != nil {
			t.Fatal(err)
		}
		rotations := w.Stats().Rotations
		// The append's fsync fails, then the fsyncs of the first two
		// repairs, which cut the segment in place; the third repair
		// seals it.
		fs.FailSyncsN(0, 3, errors.New("wedged segment"))
		if _, err := w.Append(KindEdge, testEdges(2, 5)); err == nil {
			t.Fatal("append with a failing fsync should error")
		}
		waitHealthy(t, w, 5*time.Second)
		later := testEdges(4, 5)
		if _, err := w.Append(KindEdge, later); err != nil {
			t.Fatalf("append after the seal: %v", err)
		}
		acked = append(acked, later...)
		if r := w.Stats().Rotations; r != rotations+1 {
			t.Fatalf("Rotations = %d, want %d (the repair should have sealed the segment)", r, rotations+1)
		}
		if cuts := fs.unsyncedCuts(); len(cuts) > 0 {
			t.Fatalf("truncation of %v never fsynced", cuts)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		checkReplay(t, fs.FaultFS, acked)
	})
}
