package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

var errBinDisk = errors.New("disk full")

// postFrames POSTs raw bytes as application/x-lp-edges and decodes the
// JSON response.
func postFrames(t *testing.T, ts *httptest.Server, body []byte, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest", wal.FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /ingest (binary): status %d, want %d; body: %s", resp.StatusCode, wantStatus, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// fixtureEdges is sharedFixture as structured edges: vertices 1 and 2
// share neighborhood {10..29}.
func fixtureEdges() []stream.Edge {
	var edges []stream.Edge
	for i := uint64(10); i < 30; i++ {
		edges = append(edges, stream.Edge{U: 1, V: i}, stream.Edge{U: 2, V: i})
	}
	return edges
}

func encodeFrames(t *testing.T, kind wal.Kind, batches ...[]stream.Edge) []byte {
	t.Helper()
	var body []byte
	var err error
	for _, b := range batches {
		if body, err = wal.EncodeFrame(body, kind, b); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// TestBinaryIngest: frames ingest into the same state text ingest would
// reach, across multiple frames in one request.
func TestBinaryIngest(t *testing.T) {
	ts, pred := newTestServer(t)
	edges := fixtureEdges()
	body := encodeFrames(t, wal.KindEdge, edges[:25], edges[25:])
	out := postFrames(t, ts, body, http.StatusOK)
	if out["ingested"].(float64) != 40 {
		t.Errorf("ingested = %v, want 40", out["ingested"])
	}
	if pred.NumEdges() != 40 {
		t.Errorf("predictor has %d edges, want 40", pred.NumEdges())
	}
	pair := getJSON(t, ts.URL+"/pair?u=1&v=2", http.StatusOK)
	if pair["jaccard"].(float64) != 1 {
		t.Errorf("jaccard = %v, want 1", pair["jaccard"])
	}
}

// TestBinaryIngestMatchesText: the two wire formats must land in
// identical predictor state — same vertices, edges, and scores.
func TestBinaryIngestMatchesText(t *testing.T) {
	tsText, predText := newTestServer(t)
	tsBin, predBin := newTestServer(t)
	ingest(t, tsText, sharedFixture(), http.StatusOK)
	postFrames(t, tsBin, encodeFrames(t, wal.KindEdge, fixtureEdges()), http.StatusOK)
	if predText.NumEdges() != predBin.NumEdges() || predText.NumVertices() != predBin.NumVertices() {
		t.Fatalf("state diverges: %d/%d edges, %d/%d vertices",
			predText.NumEdges(), predBin.NumEdges(), predText.NumVertices(), predBin.NumVertices())
	}
	for _, m := range linkpred.AllMeasures {
		a, _ := predText.Score(m, 1, 2)
		b, _ := predBin.Score(m, 1, 2)
		if a != b {
			t.Errorf("%s: text %v != binary %v", m, a, b)
		}
	}
}

// TestBinaryIngestMalformed: the adversarial frame shapes the fuzz
// target covers must all surface as 400 with the prior frames' edges
// acknowledged — never a panic or a hung request.
func TestBinaryIngestMalformed(t *testing.T) {
	good := encodeFrames(t, wal.KindEdge, fixtureEdges()[:4])
	cases := map[string]struct {
		mutate func([]byte) []byte
		want   int
	}{
		"torn header":   {func(b []byte) []byte { return b[:7] }, http.StatusBadRequest},
		"torn payload":  {func(b []byte) []byte { return b[:len(b)-9] }, http.StatusBadRequest},
		"bad crc":       {func(b []byte) []byte { b[0] ^= 0xff; return b }, http.StatusBadRequest},
		"oversized len": {func(b []byte) []byte { b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0x7f; return b }, http.StatusBadRequest},
		"bad kind": {func(b []byte) []byte {
			b[16] = 9
			return refreshCRC(b)
		}, http.StatusBadRequest},
		"count mismatch": {func(b []byte) []byte {
			b[17], b[18], b[19], b[20] = 0xe8, 0x03, 0, 0 // count=1000
			return refreshCRC(b)
		}, http.StatusBadRequest},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ts, pred := newTestServer(t)
			// One valid frame, then the mutated one: the valid prefix must
			// be acknowledged in the error body.
			prefix := encodeFrames(t, wal.KindEdge, fixtureEdges()[4:8])
			body := append(prefix, tc.mutate(append([]byte(nil), good...))...)
			out := postFrames(t, ts, body, tc.want)
			if out["error"] == nil {
				t.Error("error body missing")
			}
			if out["ingested"].(float64) != 4 {
				t.Errorf("ingested = %v, want 4", out["ingested"])
			}
			if pred.NumEdges() != 4 {
				t.Errorf("predictor has %d edges, want 4", pred.NumEdges())
			}
		})
	}
}

// refreshCRC re-seals a mutated frame — CRC32C over everything after
// the crc field, the frame layout — so the mutation under test is
// reached instead of masked by the checksum check.
func refreshCRC(b []byte) []byte {
	c := crc32.Checksum(b[4:], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(b[0:4], c)
	return b
}

// TestBinaryIngestKindMismatch: an arc frame sent to an undirected
// store (and vice versa) is a 400, not a silent reinterpretation.
func TestBinaryIngestKindMismatch(t *testing.T) {
	ts, _ := newTestServer(t) // undirected
	body := encodeFrames(t, wal.KindArc, fixtureEdges()[:4])
	out := postFrames(t, ts, body, http.StatusBadRequest)
	if out["error"] == nil {
		t.Error("error body missing")
	}

	dir, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode: linkpred.ModeConcurrentDirected, Config: linkpred.Config{K: 32, Seed: 1}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsDir := httptest.NewServer(New(dir))
	defer tsDir.Close()
	out = postFrames(t, tsDir, encodeFrames(t, wal.KindEdge, fixtureEdges()[:4]), http.StatusBadRequest)
	if out["error"] == nil {
		t.Error("error body missing")
	}
	postFrames(t, tsDir, encodeFrames(t, wal.KindArc, fixtureEdges()[:4]), http.StatusOK)
}

// TestBinaryIngestThroughWAL: durable binary ingest appends the frame
// bytes to the log; recovery replays them into the same state.
func TestBinaryIngestThroughWAL(t *testing.T) {
	ts, pred, d, _ := newDurableServer(t)
	body := encodeFrames(t, wal.KindEdge, fixtureEdges()[:25], fixtureEdges()[25:])
	out := postFrames(t, ts, body, http.StatusOK)
	if out["ingested"].(float64) != 40 {
		t.Errorf("ingested = %v, want 40", out["ingested"])
	}
	if pred.NumEdges() != 40 {
		t.Errorf("predictor has %d edges, want 40", pred.NumEdges())
	}
	if got := d.WAL().LastSeq(); got != 40 {
		t.Errorf("wal last_seq = %d, want 40", got)
	}
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	walStats := m["wal"].(map[string]any)
	if walStats["edges"].(float64) != 40 {
		t.Errorf("wal edges = %v, want 40", walStats["edges"])
	}
	if walStats["records"].(float64) != 2 {
		t.Errorf("wal records = %v, want 2 (one per frame)", walStats["records"])
	}
}

// TestBinaryIngestWALFailureIs503: log-before-apply holds on the frame
// path too.
func TestBinaryIngestWALFailureIs503(t *testing.T) {
	ts, pred, _, fs := newDurableServer(t)
	postFrames(t, ts, encodeFrames(t, wal.KindEdge, fixtureEdges()[:1]), http.StatusOK)
	fs.SetWriteError(errBinDisk)
	out := postFrames(t, ts, encodeFrames(t, wal.KindEdge, fixtureEdges()[1:3]), http.StatusServiceUnavailable)
	if out["error"] == nil {
		t.Error("503 body should carry the WAL error")
	}
	if _, h := ingestHeaders(t, ts, http.MethodPost, wal.FrameContentType,
		encodeFrames(t, wal.KindEdge, fixtureEdges()[1:3]), http.StatusServiceUnavailable); h.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	if pred.NumEdges() != 1 {
		t.Errorf("predictor has %d edges after failed append, want 1", pred.NumEdges())
	}
	fs.SetWriteError(nil)
	postFrames(t, ts, encodeFrames(t, wal.KindEdge, fixtureEdges()[1:3]), http.StatusOK)
	if pred.NumEdges() != 3 {
		t.Errorf("predictor has %d edges after recovery, want 3", pred.NumEdges())
	}
}
