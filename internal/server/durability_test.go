package server

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/wal"
)

// newDurableServer builds a server whose ingest path runs through a WAL
// on a fault-injectable filesystem, returning the fs so tests can break
// writes and syncs at will.
func newDurableServer(t *testing.T) (*httptest.Server, *linkpred.Concurrent, *wal.Durable, *wal.FaultFS) {
	t.Helper()
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewFaultFS()
	w, err := wal.Open("/wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := wal.NewDurable(w, "/wal", wal.KindEdge, func(wr io.Writer) error {
		return pred.Save(wr)
	})
	t.Cleanup(func() { d.Close() })
	ts := httptest.NewServer(NewWithOptions(pred, Options{Durability: d}))
	t.Cleanup(ts.Close)
	return ts, pred, d, fs
}

func TestIngestThroughWAL(t *testing.T) {
	ts, pred, _, _ := newDurableServer(t)
	out := ingest(t, ts, sharedFixture(), http.StatusOK)
	if out["ingested"].(float64) != 40 {
		t.Errorf("ingested = %v, want 40", out["ingested"])
	}
	if pred.NumEdges() != 40 {
		t.Errorf("predictor has %d edges, want 40", pred.NumEdges())
	}
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	walStats, ok := m["wal"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics missing wal section: %v", m["wal"])
	}
	if walStats["edges"].(float64) != 40 {
		t.Errorf("wal edges = %v, want 40", walStats["edges"])
	}
	if walStats["last_seq"].(float64) < 1 {
		t.Errorf("wal last_seq = %v, want >= 1", walStats["last_seq"])
	}
}

func TestIngestWALFailureIs503(t *testing.T) {
	ts, pred, _, fs := newDurableServer(t)
	ingest(t, ts, "1 2\n", http.StatusOK)
	fs.SetWriteError(errors.New("disk full"))
	out := ingest(t, ts, "3 4\n5 6\n", http.StatusServiceUnavailable)
	if out["error"] == nil {
		t.Error("503 body should carry the WAL error")
	}
	// Every ingest 503 tells the client when to retry.
	if _, h := ingestHeaders(t, ts, http.MethodPost, "text/plain", []byte("3 4\n"), http.StatusServiceUnavailable); h.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	// WAL-before-apply: the un-logged batch must not have been applied.
	if pred.NumEdges() != 1 {
		t.Errorf("predictor has %d edges after failed append, want 1", pred.NumEdges())
	}
	fs.SetWriteError(nil)
	ingest(t, ts, "3 4\n", http.StatusOK)
	if pred.NumEdges() != 2 {
		t.Errorf("predictor has %d edges after recovery, want 2", pred.NumEdges())
	}
}

func TestHealthzDegradedOnCheckpointFailure(t *testing.T) {
	ts, _, d, fs := newDurableServer(t)
	ingest(t, ts, "1 2\n", http.StatusOK)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz before fault = %v", out["status"])
	}
	fs.SetSyncError(errors.New("io error"))
	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint with broken sync should fail")
	}
	// Degraded is still HTTP 200: the store serves reads, so the probe
	// must not push the process into a restart loop.
	out = getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "degraded" {
		t.Errorf("healthz status = %v, want degraded", out["status"])
	}
	if reason, _ := out["reason"].(string); reason == "" {
		t.Error("degraded healthz should carry a reason")
	}
	fs.SetSyncError(nil)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after fault cleared: %v", err)
	}
	out = getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Errorf("healthz after recovery = %v, want ok", out["status"])
	}
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	walStats := m["wal"].(map[string]any)
	if walStats["checkpoint_errors"].(float64) < 1 {
		t.Errorf("checkpoint_errors = %v, want >= 1", walStats["checkpoint_errors"])
	}
}
