package wal

import (
	"bytes"
	"io"
	"testing"

	"linkpred/internal/core"
	"linkpred/internal/stream"
)

// recoverStoreBatched rebuilds a sharded store from the (restarted) fs
// through the batched replay path: records coalesced into batches, each
// applied with one ProcessEdges call. The small BatchEdges threshold
// makes even short logs span several flushes.
func recoverStoreBatched(t *testing.T, fs *FaultFS) (*core.Sharded, RecoverResult) {
	t.Helper()
	store, err := core.NewSharded(recoveryCfg, recoveryShards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RecoverBatched(fs, "/wal", func(r io.Reader) error {
		s, lerr := core.LoadSharded(r)
		if lerr != nil {
			return lerr
		}
		store = s
		return nil
	}, func(_ Kind, edges []stream.Edge) error {
		store.ProcessEdges(edges)
		return nil
	}, BatchedReplayOptions{BatchEdges: 200})
	if err != nil {
		t.Fatalf("recover batched: %v\n%s", err, fs.Dump())
	}
	return store, res
}

// TestRecoverBatchedMatchesPerRecord: on an intact multi-segment log
// (with a mid-stream snapshot), batched replay must recover a store
// bit-identical to the per-record Recover path.
func TestRecoverBatchedMatchesPerRecord(t *testing.T) {
	edges := testEdges(51, 6000)
	fs := NewFaultFS()
	plan := drive(t, fs, edges, 64, 32)
	if !plan.completed {
		t.Fatal("reference ingest did not complete")
	}
	fs.Crash(fs.TotalWritten())
	fs.Restart()
	perRecord, resA := recoverStore(t, fs)
	fs.Restart()
	batched, resB := recoverStoreBatched(t, fs)
	if resA.LastSeq() != resB.LastSeq() {
		t.Fatalf("recovered seq diverges: per-record %d, batched %d", resA.LastSeq(), resB.LastSeq())
	}
	if !bytes.Equal(saveBytes(t, perRecord), saveBytes(t, batched)) {
		t.Fatal("batched replay recovered a different store than per-record replay")
	}
	checkMeasures(t, batched, perRecord, edges)
}

// TestRecoverBatchedKindBarrier: a kind change must flush the pending
// batch before the new kind's records accumulate — the ordering
// barrier that keeps delete ops in log order. The recorded applyBatch
// sequence must preserve the log's kind runs exactly, and no batch may
// mix kinds.
func TestRecoverBatchedKindBarrier(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(52, 900)
	// Log runs of inserts with delete records interleaved: E[0:300),
	// D[0:50), E[300:600), D[50:100), E[600:900).
	appendRun := func(kind Kind, es []stream.Edge, batch int) {
		for lo := 0; lo < len(es); lo += batch {
			hi := lo + batch
			if hi > len(es) {
				hi = len(es)
			}
			if _, err := w.Append(kind, es[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRun(KindEdge, edges[:300], 64)
	appendRun(KindDelete, edges[:50], 16)
	appendRun(KindEdge, edges[300:600], 64)
	appendRun(KindDelete, edges[50:100], 16)
	appendRun(KindEdge, edges[600:], 64)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	type call struct {
		kind  Kind
		edges []stream.Edge
	}
	var calls []call
	_, err = RecoverBatched(nil, dir, func(io.Reader) error { return nil },
		func(kind Kind, batch []stream.Edge) error {
			calls = append(calls, call{kind, append([]stream.Edge(nil), batch...)})
			return nil
		}, BatchedReplayOptions{BatchEdges: 128})
	if err != nil {
		t.Fatal(err)
	}

	wantRuns := []struct {
		kind Kind
		es   []stream.Edge
	}{
		{KindEdge, edges[:300]},
		{KindDelete, edges[:50]},
		{KindEdge, edges[300:600]},
		{KindDelete, edges[50:100]},
		{KindEdge, edges[600:]},
	}
	i := 0
	for _, run := range wantRuns {
		var got []stream.Edge
		for i < len(calls) && calls[i].kind == run.kind && len(got) < len(run.es) {
			got = append(got, calls[i].edges...)
			i++
		}
		if len(got) != len(run.es) {
			t.Fatalf("%v run: coalesced %d edges, want %d (kind barrier crossed a run boundary)", run.kind, len(got), len(run.es))
		}
		for j := range got {
			if got[j] != run.es[j] {
				t.Fatalf("%v run edge %d reordered: %+v != %+v", run.kind, j, got[j], run.es[j])
			}
		}
	}
	if i != len(calls) {
		t.Fatalf("%d trailing applyBatch calls beyond the logged runs", len(calls)-i)
	}
}

// TestCrashRecoveryEveryBoundaryBatched re-runs the crash-at-every-byte
// property through batched replay: for any fail-stop point, the
// batch-recovered store must be bit-identical to a sequential store
// fed exactly the recovered prefix, and acknowledged edges are never
// lost. Same axis as TestCrashRecoveryEveryBoundary, coarser stride.
func TestCrashRecoveryEveryBoundaryBatched(t *testing.T) {
	nEdges, batch, ckptEvery := 6000, 64, 32
	stride := 2
	if testing.Short() {
		nEdges, stride = 1500, 6
	}
	edges := testEdges(53, nEdges)

	base := NewFaultFS()
	plan := drive(t, base, edges, batch, ckptEvery)
	if !plan.completed {
		t.Fatal("reference run did not complete")
	}
	var points []int64
	points = append(points, 0)
	for i := 0; i < len(plan.boundaries); i += stride {
		b := plan.boundaries[i]
		points = append(points, b, b+recHeaderSize+3, b-1)
	}
	for _, span := range plan.ckptSpans {
		points = append(points, (span[0]+span[1])/2, span[1]-1)
	}
	points = append(points, base.TotalWritten()+1)

	for _, k := range points {
		for _, keepAll := range []bool{true, false} {
			fs := NewFaultFS()
			fs.FailWritesAfter(k)
			res := drive(t, fs, edges, batch, ckptEvery)
			keep := int64(0)
			if keepAll {
				keep = k
			}
			fs.Crash(keep)
			fs.Restart()
			store, rec := recoverStoreBatched(t, fs)
			lastSeq := rec.LastSeq()
			if lastSeq < uint64(res.acked) {
				t.Fatalf("crash at byte %d (keep=%d): batched recovery seq %d < acknowledged %d\n%s",
					k, keep, lastSeq, res.acked, fs.Dump())
			}
			if lastSeq > uint64(len(edges)) {
				t.Fatalf("recovered seq %d beyond stream length %d", lastSeq, len(edges))
			}
			ref := referenceStore(t, edges[:lastSeq])
			if !bytes.Equal(saveBytes(t, store), saveBytes(t, ref)) {
				t.Fatalf("crash at byte %d (keep=%d, seq %d): batched-replay store differs from sequential reference\n%s",
					k, keep, lastSeq, fs.Dump())
			}
		}
	}
}
