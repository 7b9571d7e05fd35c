package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/wal"
)

// newDynamicServer serves a deletion-capable engine.
func newDynamicServer(t *testing.T) (*httptest.Server, linkpred.Engine) {
	t.Helper()
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode: linkpred.ModeDynamic, Config: linkpred.Config{K: 64, Seed: 1}, RecoverDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

// sendDelete issues DELETE /ingest with the given body and content type
// and decodes the JSON response.
func sendDelete(t *testing.T, ts *httptest.Server, contentType string, body []byte, wantStatus int) map[string]any {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("DELETE /ingest: status %d, want %d; body: %s", resp.StatusCode, wantStatus, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDeleteTextEndpoint(t *testing.T) {
	ts, eng := newDynamicServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	if eng.NumEdges() != 40 {
		t.Fatalf("fixture ingested %d edges, want 40", eng.NumEdges())
	}
	// Retract vertex 1's half of the fixture plus one edge that never
	// existed: 20 applied, 1 refused.
	var b strings.Builder
	for i := 10; i < 30; i++ {
		b.WriteString("1 ")
		b.WriteString(itoa(i))
		b.WriteString("\n")
	}
	b.WriteString("1 999\n")
	out := sendDelete(t, ts, "text/plain", []byte(b.String()), http.StatusOK)
	if out["deleted"].(float64) != 21 || out["applied"].(float64) != 20 {
		t.Fatalf("deleted/applied = %v/%v, want 21/20", out["deleted"], out["applied"])
	}
	if eng.NumEdges() != 20 {
		t.Errorf("engine has %d edges after deletes, want 20", eng.NumEdges())
	}
	// The applied count lands in /metrics, and the predictor gauges
	// expose the degraded-register gauge for this mode.
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	ing := m["ingest"].(map[string]any)
	if ing["edges_deleted"].(float64) != 20 {
		t.Errorf("metrics edges_deleted = %v, want 20", ing["edges_deleted"])
	}
	pred := m["predictor"].(map[string]any)
	if _, ok := pred["degraded_registers"]; !ok {
		t.Error("predictor gauges missing degraded_registers on dynamic mode")
	}
	if pred["recovery_depth"].(float64) != 4 {
		t.Errorf("recovery_depth gauge = %v, want 4", pred["recovery_depth"])
	}
}

func itoa(i int) string {
	return string([]byte{byte('0' + i/10), byte('0' + i%10)})
}

func TestDeleteRequiresDynamicMode(t *testing.T) {
	ts, _ := newTestServer(t) // concurrent mode
	out := sendDelete(t, ts, "text/plain", []byte("1 2\n"), http.StatusBadRequest)
	if !strings.Contains(out["error"].(string), "cannot delete") {
		t.Errorf("error = %q, want a cannot-delete explanation", out["error"])
	}
}

func TestDeleteBinaryFrames(t *testing.T) {
	ts, eng := newDynamicServer(t)
	edges := fixtureEdges()
	postFrames(t, ts, encodeFrames(t, wal.KindEdge, edges), http.StatusOK)
	out := sendDelete(t, ts, wal.FrameContentType,
		encodeFrames(t, wal.KindDelete, edges[:10], edges[10:20]), http.StatusOK)
	if out["deleted"].(float64) != 20 || out["applied"].(float64) != 20 {
		t.Fatalf("deleted/applied = %v/%v, want 20/20", out["deleted"], out["applied"])
	}
	if eng.NumEdges() != 20 {
		t.Errorf("engine has %d edges, want 20", eng.NumEdges())
	}
	// An insert frame on the delete endpoint is a client bug: 400, and
	// the preceding delete frame was already applied and reported.
	mixed := encodeFrames(t, wal.KindDelete, edges[20:25])
	mixed = append(mixed, encodeFrames(t, wal.KindEdge, edges[25:30])...)
	out = sendDelete(t, ts, wal.FrameContentType, mixed, http.StatusBadRequest)
	if out["deleted"].(float64) != 5 {
		t.Errorf("deleted before the bad frame = %v, want 5", out["deleted"])
	}
}

// TestPostIngestMixedFrames: KindDelete frames interleaved in the POST
// /ingest stream route to the delete path on a dynamic engine and 400
// on engines without the capability.
func TestPostIngestMixedFrames(t *testing.T) {
	ts, eng := newDynamicServer(t)
	edges := fixtureEdges()
	body := encodeFrames(t, wal.KindEdge, edges[:20])
	body = append(body, encodeFrames(t, wal.KindDelete, edges[:5])...)
	body = append(body, encodeFrames(t, wal.KindEdge, edges[20:])...)
	out := postFrames(t, ts, body, http.StatusOK)
	if out["ingested"].(float64) != 40 {
		t.Errorf("ingested = %v, want 40", out["ingested"])
	}
	if out["deleted"].(float64) != 5 || out["applied"].(float64) != 5 {
		t.Errorf("deleted/applied = %v/%v, want 5/5", out["deleted"], out["applied"])
	}
	if eng.NumEdges() != 35 {
		t.Errorf("engine has %d edges, want 35", eng.NumEdges())
	}

	tsPlain, _ := newTestServer(t)
	out = postFrames(t, tsPlain, append(encodeFrames(t, wal.KindEdge, edges[:10]),
		encodeFrames(t, wal.KindDelete, edges[:2])...), http.StatusBadRequest)
	if !strings.Contains(out["error"].(string), "cannot delete") {
		t.Errorf("error = %q, want a cannot-delete explanation", out["error"])
	}
	if out["ingested"].(float64) != 10 {
		t.Errorf("insert frames before the delete frame = %v, want 10", out["ingested"])
	}
}

// newDynamicDurableServer is newDurableServer for the dynamic mode.
func newDynamicDurableServer(t *testing.T) (*httptest.Server, linkpred.Engine, *wal.Durable, *wal.FaultFS) {
	t.Helper()
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode: linkpred.ModeDynamic, Config: linkpred.Config{K: 64, Seed: 1}, RecoverDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.NewFaultFS()
	w, err := wal.Open("/wal", wal.Options{FS: fs, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := wal.NewDurable(w, "/wal", wal.KindEdge, func(wr io.Writer) error {
		return eng.Save(wr)
	})
	ts := httptest.NewServer(NewWithOptions(eng, Options{Durability: d}))
	t.Cleanup(ts.Close)
	return ts, eng, d, fs
}

// TestDeleteCrashReplayByteIdentity: after a crash, recovery of a log
// holding mixed insert and delete records rebuilds a store
// byte-identical to the one that served the traffic.
func TestDeleteCrashReplayByteIdentity(t *testing.T) {
	ts, eng, _, fs := newDynamicDurableServer(t)
	edges := fixtureEdges()
	postFrames(t, ts, encodeFrames(t, wal.KindEdge, edges), http.StatusOK)
	sendDelete(t, ts, wal.FrameContentType, encodeFrames(t, wal.KindDelete, edges[:15]), http.StatusOK)
	sendDelete(t, ts, "text/plain", []byte("2 10\n2 11\n"), http.StatusOK)
	postFrames(t, ts, encodeFrames(t, wal.KindEdge, edges[:3]), http.StatusOK)

	var before bytes.Buffer
	if err := eng.Save(&before); err != nil {
		t.Fatal(err)
	}

	// Power loss with everything acknowledged on disk, then recovery
	// into a fresh engine.
	fs.Crash(fs.TotalWritten())
	fs.Restart()
	restored, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode: linkpred.ModeDynamic, Config: linkpred.Config{K: 64, Seed: 1}, RecoverDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = wal.Recover(fs, "/wal", func(r io.Reader) error {
		loaded, lerr := linkpred.LoadAnyEngine(r)
		if lerr != nil {
			return lerr
		}
		restored = loaded
		return nil
	}, func(rec wal.Record) error {
		b := make([]linkpred.Edge, len(rec.Edges))
		for i, e := range rec.Edges {
			b[i] = linkpred.Edge{U: e.U, V: e.V, T: e.T}
		}
		if rec.Kind == wal.KindDelete {
			del, ok := linkpred.DeleterOf(restored)
			if !ok {
				t.Fatal("recovered engine has no deleter")
			}
			del.DeleteEdges(b)
			return nil
		}
		restored.ObserveEdges(b)
		return nil
	})
	if err != nil {
		t.Fatalf("recover: %v\n%s", err, fs.Dump())
	}
	var after bytes.Buffer
	if err := restored.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("recovered store differs from the served store (%d vs %d bytes)\n%s",
			before.Len(), after.Len(), fs.Dump())
	}
}

// TestDeleteWALFailureIs503: a delete batch the log cannot append is
// not applied.
func TestDeleteWALFailureIs503(t *testing.T) {
	ts, eng, _, fs := newDynamicDurableServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	fs.SetWriteError(errBinDisk)
	sendDelete(t, ts, "text/plain", []byte("1 10\n"), http.StatusServiceUnavailable)
	if eng.NumEdges() != 40 {
		t.Errorf("unlogged delete was applied: %d edges, want 40", eng.NumEdges())
	}
	// Both body formats: 503 with Retry-After, and nothing applied.
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{"text/plain", []byte("1 10\n")},
		{wal.FrameContentType, encodeFrames(t, wal.KindDelete, fixtureEdges()[:2])},
	} {
		out, h := ingestHeaders(t, ts, http.MethodDelete, tc.contentType, tc.body, http.StatusServiceUnavailable)
		if h.Get("Retry-After") == "" {
			t.Errorf("%s: 503 response missing Retry-After", tc.contentType)
		}
		if out["deleted"] != float64(0) || out["applied"] != float64(0) {
			t.Errorf("%s: deleted/applied = %v/%v, want 0/0", tc.contentType, out["deleted"], out["applied"])
		}
	}
	if eng.NumEdges() != 40 {
		t.Errorf("unlogged deletes were applied: %d edges, want 40", eng.NumEdges())
	}
	fs.SetWriteError(nil)
	out := sendDelete(t, ts, "text/plain", []byte("1 10\n"), http.StatusOK)
	if out["applied"].(float64) != 1 {
		t.Errorf("applied = %v after WAL recovery, want 1", out["applied"])
	}
	if eng.NumEdges() != 39 {
		t.Errorf("engine has %d edges, want 39", eng.NumEdges())
	}
	// A malformed line ends a text DELETE with 400; the lines before it
	// were logged and deleted, and the counts say so.
	out = sendDelete(t, ts, "text/plain", []byte("1 11\n1 12\nnot an edge\n1 13\n"), http.StatusBadRequest)
	if out["deleted"] != float64(2) || out["applied"] != float64(2) {
		t.Errorf("deleted/applied = %v/%v before the malformed line, want 2/2", out["deleted"], out["applied"])
	}
	if eng.NumEdges() != 37 {
		t.Errorf("engine has %d edges, want 37", eng.NumEdges())
	}
}
