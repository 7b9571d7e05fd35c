package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"linkpred/internal/core"
	"linkpred/internal/stream"
)

// KindDelete coverage: the delete record kind must flow through every
// layer the insert kinds flow through — frame encode/parse, the
// zero-copy append path, durable log-before-apply, and replay — and
// the parser must keep rejecting everything outside the three legal
// kind bytes.

// TestDeleteFrameRoundTrip: KindDelete frames encode and parse exactly
// like the insert kinds, including mixed-kind streams.
func TestDeleteFrameRoundTrip(t *testing.T) {
	var wire []byte
	kinds := []Kind{KindEdge, KindDelete, KindArc, KindDelete}
	var want [][]stream.Edge
	for i, kind := range kinds {
		edges := testEdges(uint64(i+1), 3+i)
		var err error
		wire, err = EncodeFrame(wire, kind, edges)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, edges)
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	for i, kind := range kinds {
		k, _, edges, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if k != kind {
			t.Fatalf("frame %d: kind %d, want %d", i, k, kind)
		}
		if len(edges) != len(want[i]) {
			t.Fatalf("frame %d: %d edges, want %d", i, len(edges), len(want[i]))
		}
		for j := range edges {
			if edges[j] != want[i][j] {
				t.Fatalf("frame %d edge %d = %+v, want %+v", i, j, edges[j], want[i][j])
			}
		}
	}
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// reframe recomputes the CRC after a mutation, so the corruption under
// test is the one the parser sees (not a CRC mismatch masking it).
func reframe(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(out[0:4], crc32.Checksum(out[4:], castagnoli))
	return out
}

// TestDeleteFrameRejects is the table of adversarial delete-frame
// shapes: torn header, torn payload, and every corrupt kind byte just
// outside the legal range must come back as errors, never panics.
func TestDeleteFrameRejects(t *testing.T) {
	good, err := EncodeFrame(nil, KindDelete, testEdges(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	badKind3 := append([]byte(nil), good...)
	badKind3[recHeaderSize] = 3
	badKind255 := append([]byte(nil), good...)
	badKind255[recHeaderSize] = 255
	cases := map[string][]byte{
		"torn header":          good[:recHeaderSize-3],
		"torn payload":         good[:len(good)-7],
		"corrupt kind 3":       reframe(badKind3),
		"corrupt kind 255":     reframe(badKind255),
		"kind flip, stale crc": badKind3, // CRC catches the flip first
	}
	for name, wire := range cases {
		fr := NewFrameReader(bytes.NewReader(wire))
		if _, _, _, err := fr.Next(); err == nil || err == io.EOF {
			t.Errorf("%s: err = %v, want a validation error", name, err)
		}
	}
}

// TestIngestFrameDeleteKinds: a durable log accepts its own insert
// kind and KindDelete frames, and keeps rejecting the other insert
// kind (an arc frame cannot land in an undirected log by way of the
// delete loophole).
func TestIngestFrameDeleteKinds(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, dir, KindEdge, func(io.Writer) error { return nil })
	applied := 0
	apply := func(b []stream.Edge) { applied += len(b) }

	edgeFrame, _ := EncodeFrame(nil, KindEdge, testEdges(1, 2))
	delFrame, _ := EncodeFrame(nil, KindDelete, testEdges(2, 3))
	arcFrame, _ := EncodeFrame(nil, KindArc, testEdges(3, 4))
	if err := d.IngestRecord(KindEdge, edgeFrame, testEdges(1, 2), apply); err != nil {
		t.Fatalf("edge frame rejected: %v", err)
	}
	if err := d.IngestRecord(KindDelete, delFrame, testEdges(2, 3), apply); err != nil {
		t.Fatalf("delete frame rejected: %v", err)
	}
	if err := d.IngestRecord(KindArc, arcFrame, testEdges(3, 4), apply); err == nil {
		t.Fatal("arc frame accepted by an undirected log")
	}
	if applied != 5 {
		t.Fatalf("applied %d edges, want 5", applied)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	if _, err := Replay(nil, dir, 0, func(rec Record) error {
		kinds = append(kinds, rec.Kind)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != KindEdge || kinds[1] != KindDelete {
		t.Fatalf("replayed kinds %v, want [KindEdge KindDelete]", kinds)
	}
}

// TestReplayMixedKinds: records of all three kinds interleave in one
// log and replay in order with their kinds and sequence numbers
// intact.
func TestReplayMixedKinds(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 2 << 10}) // force rotations mid-stream
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KindEdge, KindDelete, KindArc, KindDelete, KindEdge}
	var wantSeq uint64
	for i, k := range kinds {
		n := 10 + i
		if _, err := w.Append(k, testEdges(uint64(i), n)); err != nil {
			t.Fatal(err)
		}
		wantSeq += uint64(n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Kind
	res, err := Replay(nil, dir, 0, func(rec Record) error {
		got = append(got, rec.Kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastSeq != wantSeq {
		t.Fatalf("replayed through seq %d, want %d", res.LastSeq, wantSeq)
	}
	if len(got) != len(kinds) {
		t.Fatalf("replayed %d records, want %d", len(got), len(kinds))
	}
	for i := range got {
		if got[i] != kinds[i] {
			t.Fatalf("record %d: kind %d, want %d", i, got[i], kinds[i])
		}
	}
}

// TestIngestDeleteLogBeforeApply: IngestRecord must not apply a delete
// batch the log refused.
func TestIngestDeleteLogBeforeApply(t *testing.T) {
	fs := NewFaultFS()
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDurable(w, "/wal", KindEdge, func(io.Writer) error { return nil })
	edges := testEdges(9, 8)
	if err := d.Ingest(edges, func([]stream.Edge) {}); err != nil {
		t.Fatal(err)
	}
	fs.FailWritesAfter(fs.TotalWritten()) // every further write fails
	applied := false
	if err := d.IngestRecord(KindDelete, nil, edges[:2], func([]stream.Edge) { applied = true }); err == nil {
		t.Fatal("IngestRecord acknowledged a delete batch the log could not append")
	}
	if applied {
		t.Fatal("IngestRecord applied a delete batch that was never logged")
	}
}

// ---- Crash-recovery with deletions ----
//
// The dynamic-store variant of the crash property: a mixed
// insert/delete workload driven through Durable (inserts via Ingest,
// deletes via IngestRecord, checkpoints interleaved) and crashed at
// every acknowledged-batch boundary must recover a store byte-identical
// to a fresh store fed exactly the recovered operation prefix.

// dynOp is one workload operation; a batch of ops with equal del flags
// becomes one WAL record.
type dynOp struct {
	del  bool
	edge stream.Edge
}

// dynWorkload builds a deterministic mixed workload: blocks of inserts
// with every third block followed by deletions of earlier inserts.
func dynWorkload(n int) []dynOp {
	edges := testEdges(77, n)
	ops := make([]dynOp, 0, n+n/3)
	inserted := 0
	deleted := 0
	for inserted < len(edges) {
		hi := inserted + 48
		if hi > len(edges) {
			hi = len(edges)
		}
		for _, e := range edges[inserted:hi] {
			ops = append(ops, dynOp{edge: e})
		}
		inserted = hi
		// Retract half the block just inserted, leaving a growing gap so
		// deletes hit both buffered and evicted arrivals.
		for deleted+2 < inserted {
			ops = append(ops, dynOp{del: true, edge: edges[deleted]})
			deleted += 3
		}
	}
	return ops
}

var dynRecoveryCfg = core.Config{K: 8, Seed: 19}

const dynRecoveryDepth = 2

// dynDrive runs the workload through a Durable dynamic store until
// done or the first injected failure, recording acknowledged op counts
// at each batch boundary.
func dynDrive(t *testing.T, fs *FaultFS, ops []dynOp) (acked int, boundaries []int64, completed bool) {
	t.Helper()
	store, err := core.NewDynamicStore(dynRecoveryCfg, dynRecoveryDepth)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open("/wal", Options{FS: fs, Fsync: FsyncAlways, SegmentBytes: 8 << 10})
	if err != nil {
		return 0, nil, false
	}
	d := NewDurable(w, "/wal", KindEdge, store.Save)
	batches := 0
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && ops[j].del == ops[i].del && j-i < 32 {
			j++
		}
		batch := make([]stream.Edge, 0, j-i)
		for _, op := range ops[i:j] {
			batch = append(batch, op.edge)
		}
		if ops[i].del {
			err = d.IngestRecord(KindDelete, nil, batch, func(b []stream.Edge) { store.DeleteEdges(b) })
		} else {
			err = d.Ingest(batch, func(b []stream.Edge) { store.ProcessEdges(b) })
		}
		if err != nil {
			return acked, boundaries, false
		}
		acked = j
		boundaries = append(boundaries, fs.TotalWritten())
		batches++
		if batches%8 == 0 {
			if err := d.Checkpoint(); err != nil {
				return acked, boundaries, false
			}
		}
		i = j
	}
	return acked, boundaries, true
}

// dynReference is a fresh dynamic store fed exactly the first n ops.
func dynReference(t *testing.T, ops []dynOp, n int) *core.DynamicStore {
	t.Helper()
	ref, err := core.NewDynamicStore(dynRecoveryCfg, dynRecoveryDepth)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:n] {
		if op.del {
			ref.DeleteEdge(op.edge)
		} else {
			ref.ProcessEdge(op.edge)
		}
	}
	return ref
}

// TestDynamicCrashRecoveryEveryBoundary: crash at every acknowledged
// batch boundary (and torn mid-record just past each), under both
// power-loss models, and require the recovered dynamic store to be
// byte-identical to the reference fed the recovered prefix — deletes,
// refcounts, discard counts, degraded flags and all.
func TestDynamicCrashRecoveryEveryBoundary(t *testing.T) {
	n := 1200
	stride := 1
	if testing.Short() {
		n, stride = 400, 3
	}
	ops := dynWorkload(n)

	base := NewFaultFS()
	_, boundaries, completed := dynDrive(t, base, ops)
	if !completed {
		t.Fatal("reference run did not complete")
	}

	points := []int64{0}
	for i := 0; i < len(boundaries); i += stride {
		points = append(points, boundaries[i], boundaries[i]+recHeaderSize+3)
	}
	points = append(points, base.TotalWritten()+1)

	for _, k := range points {
		for _, keepAll := range []bool{true, false} {
			fs := NewFaultFS()
			fs.FailWritesAfter(k)
			acked, _, _ := dynDrive(t, fs, ops)
			keep := int64(0)
			if keepAll {
				keep = k
			}
			fs.Crash(keep)
			fs.Restart()

			store, err := core.NewDynamicStore(dynRecoveryCfg, dynRecoveryDepth)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Recover(fs, "/wal", func(r io.Reader) error {
				s, err := core.LoadDynamicStore(r)
				if err != nil {
					return err
				}
				store = s
				return nil
			}, func(rec Record) error {
				switch rec.Kind {
				case KindDelete:
					store.DeleteEdges(rec.Edges)
				default:
					store.ProcessEdges(rec.Edges)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("crash at byte %d: recover: %v\n%s", k, err, fs.Dump())
			}
			lastSeq := res.LastSeq()
			if lastSeq < uint64(acked) {
				t.Fatalf("crash at byte %d (keep=%v): recovered seq %d < acknowledged %d ops\n%s",
					k, keepAll, lastSeq, acked, fs.Dump())
			}
			if lastSeq > uint64(len(ops)) {
				t.Fatalf("recovered seq %d beyond workload length %d", lastSeq, len(ops))
			}
			ref := dynReference(t, ops, int(lastSeq))
			var got, want bytes.Buffer
			if err := store.Save(&got); err != nil {
				t.Fatal(err)
			}
			if err := ref.Save(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("crash at byte %d (keep=%v, recovered %d ops): recovered dynamic store differs from reference\n%s",
					k, keepAll, lastSeq, fs.Dump())
			}
		}
	}
}
