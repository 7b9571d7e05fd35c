package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	linkpred "linkpred"
	"linkpred/internal/wal"
)

// fastHeal makes the WAL healer repair within milliseconds.
var fastHeal = &wal.HealOptions{Backoff: time.Millisecond}

// waitHealthy polls until d's log ends its degraded episode or the
// deadline passes.
func waitHealthy(t *testing.T, d *wal.Durable) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.WAL().HealState().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("WAL still degraded after 5s: %+v", d.WAL().HealState())
		}
		time.Sleep(time.Millisecond)
	}
}

// newDurableServer builds a server whose ingest path runs through a WAL
// on a fault-injectable filesystem, returning the fs so tests can break
// writes and syncs at will. The log is booted as lpserver boots it, so
// checkpoints save pred until POST /restore swaps in another engine;
// the httptest server's handler is the *Server.
func newDurableServer(t *testing.T) (*httptest.Server, *linkpred.Concurrent, *wal.Durable, *wal.FaultFS) {
	t.Helper()
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewFaultFS()
	_, d, _, err := Boot("/wal", pred, wal.Options{FS: fs, Fsync: wal.FsyncAlways, Heal: fastHeal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := NewWithOptions(pred, Options{Durability: d})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, pred, d, fs
}

// restore posts a store image to /restore and returns the response.
func restore(t *testing.T, ts *httptest.Server, eng linkpred.Engine, wantStatus int) *http.Response {
	t.Helper()
	var img bytes.Buffer
	if err := eng.Save(&img); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/restore", "application/octet-stream", &img)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /restore: status %d, want %d; body: %s", resp.StatusCode, wantStatus, b)
	}
	return resp
}

// imageBytes is eng's Save image.
func imageBytes(t *testing.T, eng linkpred.Engine) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := eng.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRestoreSurvivesCrash: after a durable POST /restore, a crash
// recovers the restored image plus the batches logged after it, byte for
// byte what the server served, whether or not anything was ingested
// between the last checkpoint and the restore, and whether or not a
// checkpoint, which must save the restored engine, followed.
func TestRestoreSurvivesCrash(t *testing.T) {
	for _, tc := range []struct {
		between, ckptAfter bool
		name               string
	}{{false, false, ""}, {true, false, ""}, {true, true, ",checkpoint-after"}} {
		between := tc.between
		t.Run(fmt.Sprintf("ingest-between=%v%s", between, tc.name), func(t *testing.T) {
			ts, _, d, fs := newDurableServer(t)
			srv := ts.Config.Handler.(*Server)
			ingest(t, ts, sharedFixture(), http.StatusOK)
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if between {
				ingest(t, ts, "3 4\n5 6\n", http.StatusOK)
			}
			other, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 2)
			if err != nil {
				t.Fatal(err)
			}
			other.ObserveEdges([]linkpred.Edge{{U: 7, V: 8}, {U: 8, V: 9}, {U: 1, V: 9}})
			restore(t, ts, other, http.StatusOK)
			ingest(t, ts, "9 10\n", http.StatusOK)
			if tc.ckptAfter {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			want := imageBytes(t, srv.Engine())

			fs.Crash(fs.TotalWritten())
			fs.Restart()
			var recovered linkpred.Engine
			if _, err := wal.Recover(fs, "/wal", func(r io.Reader) error {
				recovered, err = linkpred.LoadAnyEngine(r)
				return err
			}, func(rec wal.Record) error {
				recovered.ObserveEdges(rec.Edges)
				return nil
			}); err != nil {
				t.Fatalf("recover: %v\n%s", err, fs.Dump())
			}
			if got := imageBytes(t, recovered); !bytes.Equal(got, want) {
				t.Fatalf("recovered %d edges, the server served %d: images differ\n%s",
					recovered.NumEdges(), srv.Engine().NumEdges(), fs.Dump())
			}
		})
	}
}

// TestRestoreDuringIngestSurvivesCrash: a restore that lands between
// two batches of one /ingest request leaves the later batches on the
// restored engine, which is where replay puts them after a crash.
func TestRestoreDuringIngestSurvivesCrash(t *testing.T) {
	ts, pred, _, fs := newDurableServer(t)
	srv := ts.Config.Handler.(*Server)
	other, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	other.ObserveEdges([]linkpred.Edge{{U: 7, V: 8}, {U: 8, V: 9}})
	var body strings.Builder
	for i := 0; i < 16*ingestBatchSize; i++ {
		fmt.Fprintf(&body, "%d %d\n", i%997, 1000+i%991)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(body.String()))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST /ingest: status %d", resp.StatusCode)
		}
	}()
	// Restore once the first batch is applied (or the request ended).
started:
	for pred.NumEdges() == 0 {
		select {
		case <-done:
			break started
		default:
			runtime.Gosched()
		}
	}
	restore(t, ts, other, http.StatusOK)
	<-done
	want := imageBytes(t, srv.Engine())

	fs.Crash(fs.TotalWritten())
	fs.Restart()
	var recovered linkpred.Engine
	if _, err := wal.Recover(fs, "/wal", func(r io.Reader) error {
		recovered, err = linkpred.LoadAnyEngine(r)
		return err
	}, func(rec wal.Record) error {
		recovered.ObserveEdges(rec.Edges)
		return nil
	}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := imageBytes(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d edges, the server served %d: images differ", recovered.NumEdges(), srv.Engine().NumEdges())
	}
}

// TestDurableRestoreRefusals: under a WAL, an image of the other
// orientation is 400 (the log's record kind is fixed), and a snapshot
// that cannot be written is 503 with Retry-After; neither swaps the
// served engine, and ingest keeps working.
func TestDurableRestoreRefusals(t *testing.T) {
	ts, pred, _, fs := newDurableServer(t)
	srv := ts.Config.Handler.(*Server)
	ingest(t, ts, "1 2\n", http.StatusOK)
	directed, err := linkpred.NewConcurrentDirected(linkpred.Config{K: 64, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	directed.ObserveEdges([]linkpred.Edge{{U: 3, V: 4}})
	restore(t, ts, directed, http.StatusBadRequest)

	fs.SetWriteError(errors.New("disk full"))
	if h := restore(t, ts, pred, http.StatusServiceUnavailable).Header; h.Get("Retry-After") == "" {
		t.Error("503 restore missing Retry-After")
	}
	fs.SetWriteError(nil)
	if srv.Engine() != linkpred.Engine(pred) {
		t.Fatal("a refused restore swapped the served engine")
	}
	ingest(t, ts, "3 4\n", http.StatusOK)
	if pred.NumEdges() != 2 {
		t.Errorf("predictor has %d edges, want 2", pred.NumEdges())
	}
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
	ts, pred, d, fs := newDurableServer(t)
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
	waitHealthy(t, d)
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
	waitHealthy(t, d)
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
