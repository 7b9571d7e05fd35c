package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/monitor"
)

func newTestServer(t *testing.T) (*httptest.Server, *linkpred.Concurrent) {
	t.Helper()
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(pred))
	t.Cleanup(ts.Close)
	return ts, pred
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d; body: %s", url, resp.StatusCode, wantStatus, body)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func ingest(t *testing.T, ts *httptest.Server, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /ingest: status %d, want %d; body: %s", resp.StatusCode, wantStatus, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// ingestHeaders sends body to /ingest with the given method and content
// type, and returns the decoded JSON response with its headers.
func ingestHeaders(t *testing.T, ts *httptest.Server, method, contentType string, body []byte, wantStatus int) (map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+"/ingest", bytes.NewReader(body))
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
		t.Fatalf("%s /ingest (%s): status %d, want %d; body: %s", method, contentType, resp.StatusCode, wantStatus, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.Header
}

// sharedFixture ingests a shared neighborhood {10..29} for vertices 1, 2.
func sharedFixture() string {
	var b strings.Builder
	for i := 10; i < 30; i++ {
		fmt.Fprintf(&b, "1 %d\n2 %d\n", i, i)
	}
	return b.String()
}

func TestIngestAndPair(t *testing.T) {
	ts, pred := newTestServer(t)
	out := ingest(t, ts, sharedFixture(), http.StatusOK)
	if out["ingested"].(float64) != 40 {
		t.Errorf("ingested = %v, want 40", out["ingested"])
	}
	if pred.NumEdges() != 40 {
		t.Errorf("predictor has %d edges", pred.NumEdges())
	}
	pair := getJSON(t, ts.URL+"/pair?u=1&v=2", http.StatusOK)
	if pair["jaccard"].(float64) != 1 {
		t.Errorf("jaccard = %v, want 1", pair["jaccard"])
	}
	if cn := pair["common_neighbors"].(float64); cn < 10 || cn > 30 {
		t.Errorf("common_neighbors = %v, want ≈20", cn)
	}
	if aa := pair["adamic_adar"].(float64); aa <= 0 {
		t.Errorf("adamic_adar = %v, want > 0", aa)
	}
	if ra := pair["resource_allocation"].(float64); ra <= 0 {
		t.Errorf("resource_allocation = %v, want > 0", ra)
	}
}

func TestIngestMalformed(t *testing.T) {
	ts, _ := newTestServer(t)
	out := ingest(t, ts, "1 2\nbogus\n3 4\n", http.StatusBadRequest)
	if out["error"] == nil {
		t.Error("expected error message")
	}
	if out["ingested"].(float64) != 1 {
		t.Errorf("ingested before failure = %v, want 1", out["ingested"])
	}
}

func TestScoreEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	for _, m := range []string{"jaccard", "common-neighbors", "adamic-adar", "resource-allocation"} {
		out := getJSON(t, ts.URL+"/score?u=1&v=2&measure="+m, http.StatusOK)
		if out["measure"].(string) != m {
			t.Errorf("measure echoed as %v", out["measure"])
		}
		if out["score"].(float64) <= 0 {
			t.Errorf("%s score = %v, want > 0", m, out["score"])
		}
	}
	// Default measure.
	out := getJSON(t, ts.URL+"/score?u=1&v=2", http.StatusOK)
	if out["measure"].(string) != "adamic-adar" {
		t.Errorf("default measure = %v", out["measure"])
	}
	getJSON(t, ts.URL+"/score?u=1&v=2&measure=zebra", http.StatusBadRequest)
	getJSON(t, ts.URL+"/score?u=x&v=2", http.StatusBadRequest)
	getJSON(t, ts.URL+"/score?u=1", http.StatusBadRequest)
}

func TestTopKEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// 1 overlaps with 2 (20 shared), with 3 (5 shared).
	var b strings.Builder
	for i := 10; i < 30; i++ {
		fmt.Fprintf(&b, "1 %d\n2 %d\n", i, i)
	}
	for i := 10; i < 15; i++ {
		fmt.Fprintf(&b, "3 %d\n", i)
	}
	ingest(t, ts, b.String(), http.StatusOK)
	out := getJSON(t, ts.URL+"/topk?u=1&candidates=2,3,999,1&measure=common-neighbors&k=2", http.StatusOK)
	cands := out["candidates"].([]any)
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2: %v", len(cands), cands)
	}
	first := cands[0].(map[string]any)
	second := cands[1].(map[string]any)
	if first["v"].(float64) != 2 || second["v"].(float64) != 3 {
		t.Errorf("ranking = %v, want [2 3]", cands)
	}
	if first["score"].(float64) <= second["score"].(float64) {
		t.Error("scores not descending")
	}
	getJSON(t, ts.URL+"/topk?u=1&measure=jaccard", http.StatusBadRequest)            // no candidates
	getJSON(t, ts.URL+"/topk?u=1&candidates=2&k=0", http.StatusBadRequest)           // bad k
	getJSON(t, ts.URL+"/topk?u=1&candidates=abc", http.StatusBadRequest)             // bad candidate
	getJSON(t, ts.URL+"/topk?u=1&candidates=2&measure=zebra", http.StatusBadRequest) // bad measure
	getJSON(t, ts.URL+"/topk?candidates=2", http.StatusBadRequest)                   // missing u
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, "1 2\n3 4\n", http.StatusOK)
	out := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if out["vertices"].(float64) != 4 || out["edges"].(float64) != 2 {
		t.Errorf("stats = %v", out)
	}
	if out["memory_bytes"].(float64) <= 0 || out["k"].(float64) != 64 {
		t.Errorf("stats = %v", out)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _ := newTestServer(t)
	// GET on /ingest and POST on /stats must 404/405 under method routing.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /ingest should not succeed")
	}
	resp, err = http.Post(ts.URL+"/stats", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("POST /stats should not succeed")
	}
}

func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			var b strings.Builder
			for i := 0; i < 200; i++ {
				fmt.Fprintf(&b, "%d %d\n", base+i, base+i+1)
			}
			resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(b.String()))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}(w * 1000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Get(ts.URL + "/pair?u=1&v=2")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	out := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if out["edges"].(float64) != 800 {
		t.Errorf("edges after concurrent ingest = %v, want 800", out["edges"])
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	ts, pred := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	wantJ := pred.Jaccard(1, 2)

	// Download checkpoint.
	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(ckpt) == 0 {
		t.Fatalf("checkpoint status %d, %d bytes", resp.StatusCode, len(ckpt))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}

	// Wipe the server state by restoring onto a *second* server.
	ts2, _ := newTestServer(t)
	resp, err = http.Post(ts2.URL+"/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d: %v", resp.StatusCode, out)
	}
	if out["restored_edges"].(float64) != 40 {
		t.Errorf("restored_edges = %v, want 40", out["restored_edges"])
	}
	// The restored server must answer identically.
	pair := getJSON(t, ts2.URL+"/pair?u=1&v=2", http.StatusOK)
	if pair["jaccard"].(float64) != wantJ {
		t.Errorf("restored jaccard = %v, want %v", pair["jaccard"], wantJ)
	}
	// And keep ingesting.
	ingest(t, ts2, "100 101\n", http.StatusOK)
	stats := getJSON(t, ts2.URL+"/stats", http.StatusOK)
	if stats["edges"].(float64) != 41 {
		t.Errorf("post-restore edges = %v, want 41", stats["edges"])
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/restore", "application/octet-stream",
		strings.NewReader("definitely not a checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage restore status = %d, want 400", resp.StatusCode)
	}
}

func TestPairIncludesAllMeasures(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	pair := getJSON(t, ts.URL+"/pair?u=1&v=2", http.StatusOK)
	for _, key := range []string{
		"jaccard", "common_neighbors", "adamic_adar",
		"resource_allocation", "preferential_attachment", "cosine",
	} {
		v, ok := pair[key]
		if !ok {
			t.Errorf("/pair missing %q", key)
			continue
		}
		if v.(float64) <= 0 {
			t.Errorf("/pair %s = %v, want > 0", key, v)
		}
	}
}

func TestScoreAllSixMeasures(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	for _, m := range []string{
		"jaccard", "common-neighbors", "adamic-adar",
		"resource-allocation", "preferential-attachment", "cosine",
	} {
		out := getJSON(t, ts.URL+"/score?u=1&v=2&measure="+m, http.StatusOK)
		if out["score"].(float64) <= 0 {
			t.Errorf("%s score = %v, want > 0", m, out["score"])
		}
	}
}

func TestTopKMatchesLibraryRanking(t *testing.T) {
	ts, pred := newTestServer(t)
	var b strings.Builder
	for i := 10; i < 30; i++ {
		fmt.Fprintf(&b, "1 %d\n2 %d\n", i, i)
	}
	for i := 10; i < 15; i++ {
		fmt.Fprintf(&b, "3 %d\n", i)
	}
	ingest(t, ts, b.String(), http.StatusOK)
	want, err := pred.TopK(linkpred.CommonNeighbors, 1, []uint64{2, 3, 999}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := getJSON(t, ts.URL+"/topk?u=1&candidates=2,3,999&measure=common-neighbors&k=2", http.StatusOK)
	cands := out["candidates"].([]any)
	if len(cands) != len(want) {
		t.Fatalf("HTTP ranking has %d entries, library %d", len(cands), len(want))
	}
	for i, c := range cands {
		entry := c.(map[string]any)
		if uint64(entry["v"].(float64)) != want[i].V || entry["score"].(float64) != want[i].Score {
			t.Errorf("rank %d: HTTP %v, library %+v", i, entry, want[i])
		}
	}
	// Cosine over HTTP must rank too (previously "unknown measure").
	out = getJSON(t, ts.URL+"/topk?u=1&candidates=2,3&measure=cosine", http.StatusOK)
	if len(out["candidates"].([]any)) != 2 {
		t.Errorf("cosine topk = %v", out["candidates"])
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, "1 2\n", http.StatusOK)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"].(string) != "ok" {
		t.Errorf("healthz status = %v", out["status"])
	}
	if out["uptime_seconds"].(float64) < 0 || out["edges"].(float64) != 1 {
		t.Errorf("healthz = %v", out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	getJSON(t, ts.URL+"/pair?u=1&v=2", http.StatusOK)
	getJSON(t, ts.URL+"/pair?u=1&v=2", http.StatusOK)
	getJSON(t, ts.URL+"/score?u=1&v=2&measure=zebra", http.StatusBadRequest)

	out := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	requests := out["requests"].(map[string]any)
	pair := requests["pair"].(map[string]any)
	if pair["count"].(float64) != 2 {
		t.Errorf("pair count = %v, want 2", pair["count"])
	}
	score := requests["score"].(map[string]any)
	if score["errors"].(float64) != 1 {
		t.Errorf("score errors = %v, want 1", score["errors"])
	}
	if latency := pair["latency"].(map[string]any); latency["buckets"] == nil {
		t.Error("latency histogram missing")
	}
	if edges := out["ingest"].(map[string]any)["edges"].(float64); edges != 40 {
		t.Errorf("ingest.edges = %v, want 40", edges)
	}
	predGauges := out["predictor"].(map[string]any)
	if predGauges["vertices"].(float64) != 22 || predGauges["edges"].(float64) != 40 {
		t.Errorf("predictor gauges = %v", predGauges)
	}
	if predGauges["memory_bytes"].(float64) <= 0 {
		t.Error("memory gauge missing")
	}

	// expvar-compatible flat map.
	flat := getJSON(t, ts.URL+"/metrics?format=expvar", http.StatusOK)
	if flat["requests.pair.count"].(float64) != 3 { // +1 from the nested /metrics read? no — /metrics reads don't touch pair
		t.Logf("flat keys: %v", flat)
	}
	if _, ok := flat["predictor.vertices"]; !ok {
		t.Errorf("expvar format missing flattened keys: %v", flat)
	}
	if _, ok := flat["requests"]; ok {
		t.Error("expvar format should not contain nested maps at top level")
	}
}

func TestMetricsWithMonitor(t *testing.T) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(monitor.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(pred, Options{Monitor: mon}))
	t.Cleanup(ts.Close)
	ingest(t, ts, "1 2\n1 2\n3 4\n5 5\n", http.StatusOK) // one duplicate, one self-loop
	out := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	strm, ok := out["stream"].(map[string]any)
	if !ok {
		t.Fatalf("stream profile missing from /metrics: %v", out)
	}
	if strm["edges"].(float64) != 3 || strm["self_loops"].(float64) != 1 {
		t.Errorf("stream profile = %v", strm)
	}
	if strm["duplicate_rate"].(float64) <= 0 {
		t.Errorf("duplicate_rate = %v, want > 0", strm["duplicate_rate"])
	}
}

func TestBodyLimit(t *testing.T) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(pred, Options{MaxBodyBytes: 64}))
	t.Cleanup(ts.Close)

	// Under the cap: accepted.
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("1 2\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small ingest status = %d", resp.StatusCode)
	}

	// Over the cap: 413, with the partial-ingest count reported.
	var big strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&big, "%d %d\n", i, i+1)
	}
	resp, err = http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(big.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ingest status = %d, want 413 (%v)", resp.StatusCode, out)
	}

	// DELETE /ingest over the cap: also 413 (on a dynamic engine, so the
	// delete route reads the body).
	dyn, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode: linkpred.ModeDynamic, Config: linkpred.Config{K: 16, Seed: 1}, RecoverDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsDyn := httptest.NewServer(NewWithOptions(dyn, Options{MaxBodyBytes: 64}))
	t.Cleanup(tsDyn.Close)
	sendDelete(t, tsDyn, "text/plain", []byte(big.String()), http.StatusRequestEntityTooLarge)

	// /restore over the cap: also 413.
	resp, err = http.Post(ts.URL+"/restore", "application/octet-stream", strings.NewReader(strings.Repeat("x", 200)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized restore status = %d, want 413", resp.StatusCode)
	}
}

func TestRestoreCountsInMetrics(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, "1 2\n", http.StatusOK)
	resp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	ck := out["checkpoints"].(map[string]any)
	if ck["saved"].(float64) != 1 || ck["restored"].(float64) != 1 {
		t.Errorf("checkpoint counters = %v", ck)
	}
}
