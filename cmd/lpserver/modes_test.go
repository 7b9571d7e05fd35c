package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postBody posts body to url and returns the response text, asserting
// the status.
func postBody(t *testing.T, url, body string, wantStatus int) string {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d %s, want %d", url, resp.StatusCode, b, wantStatus)
	}
	return string(b)
}

// TestModeFlagServesAllEndpoints boots lpserver in every -mode and
// drives the full endpoint set — /ingest, /score, /scorebatch, /topk —
// proving the HTTP surface is identical regardless of store.
func TestModeFlagServesAllEndpoints(t *testing.T) {
	for _, mode := range []string{"single", "concurrent", "directed", "concurrent-directed", "windowed", "dynamic"} {
		t.Run(mode, func(t *testing.T) {
			var out strings.Builder
			a, err := build([]string{"-addr", ":0", "-k", "32", "-mode", mode,
				"-window", "1000000", "-gens", "4"}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "serving "+mode+" sketch") {
				t.Errorf("boot banner missing mode: %q", out.String())
			}
			ts := httptest.NewServer(a.srv)
			defer ts.Close()

			postBody(t, ts.URL+"/ingest", "1 10\n2 10\n1 11\n2 11\n10 2\n11 2\n", http.StatusOK)

			for _, m := range []string{"jaccard", "common-neighbors", "adamic-adar",
				"resource-allocation", "preferential-attachment", "cosine"} {
				body := getBody(t, ts.URL+"/score?u=1&v=2&measure="+m)
				if !strings.Contains(string(body), `"score"`) {
					t.Errorf("mode %s /score measure=%s: %s", mode, m, body)
				}
			}
			sb := postBody(t, ts.URL+"/scorebatch",
				`{"measure":"jaccard","pairs":[{"u":1,"v":2},{"u":2,"v":10}]}`, http.StatusOK)
			if !strings.Contains(sb, `"scores"`) {
				t.Errorf("mode %s /scorebatch: %s", mode, sb)
			}
			topk := getBody(t, ts.URL+"/topk?u=1&candidates=2,10,11&k=2")
			if !strings.Contains(string(topk), `"candidates"`) {
				t.Errorf("mode %s /topk: %s", mode, topk)
			}
			stats := getBody(t, ts.URL+"/stats")
			if !strings.Contains(string(stats), `"mode":"`+mode+`"`) {
				t.Errorf("mode %s /stats: %s", mode, stats)
			}
		})
	}
}

func TestModeFlagRejectsUnknown(t *testing.T) {
	var out strings.Builder
	if _, err := build([]string{"-mode", "zebra"}, &out); err == nil {
		t.Error("unknown -mode should error")
	}
	if _, err := build([]string{"-mode", "windowed", "-window", "0"}, &out); err == nil {
		t.Error("windowed mode with zero window should error")
	}
}

// TestWALRecoveryDirectedMode crashes a -mode=directed server and
// reboots it from the WAL: the log carries arc records, so the
// recovered store must preserve orientation, not fold arcs into edges.
func TestWALRecoveryDirectedMode(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-addr", ":0", "-k", "32", "-mode", "directed",
		"-wal-dir", dir, "-wal-fsync", "always"}

	var out strings.Builder
	a, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv)
	// Arcs 1 → m → 2: forward candidate arc 1 → 2 scores high,
	// reverse 2 → 1 scores zero — only if orientation survived.
	postBody(t, ts.URL+"/ingest", "1 10\n1 11\n1 12\n10 2\n11 2\n12 2\n", http.StatusOK)
	want := string(getBody(t, ts.URL+"/score?u=1&v=2&measure=common-neighbors"))
	ts.Close()
	// Crash: no Close, no checkpoint — state lives only in the log.

	out.Reset()
	a2, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.durable.Close()
	if !strings.Contains(out.String(), "recovered") {
		t.Errorf("second boot should report recovery: %q", out.String())
	}
	if got := a2.srv.Engine().NumEdges(); got != 6 {
		t.Errorf("recovered %d arcs, want 6", got)
	}
	ts2 := httptest.NewServer(a2.srv)
	defer ts2.Close()
	if got := string(getBody(t, ts2.URL+"/score?u=1&v=2&measure=common-neighbors")); got != want {
		t.Errorf("recovered forward score = %s, want %s", got, want)
	}
	rev := string(getBody(t, ts2.URL+"/score?u=2&v=1&measure=common-neighbors"))
	if rev == want {
		t.Errorf("reverse arc score %s equals forward %s: orientation lost in WAL replay", rev, want)
	}
}

// TestWALRefusesOtherOrientation crashes a server before its first
// checkpoint, so its state lives only in log records of its
// orientation, and reboots the log in a mode of the other orientation.
// Replaying arcs as undirected edges, or edges as arcs, would serve a
// different graph and append records of the wrong kind to the log, so
// the boot must fail and name the -mode flag.
func TestWALRefusesOtherOrientation(t *testing.T) {
	for _, tc := range []struct{ wrote, reboot, records string }{
		{"directed", "concurrent", "directed arc"},
		{"concurrent", "directed", "undirected edge"},
	} {
		t.Run(tc.wrote+"-log/"+tc.reboot, func(t *testing.T) {
			dir := t.TempDir()
			boot := func(mode string) (*app, error) {
				var out strings.Builder
				return build([]string{"-addr", ":0", "-k", "32", "-mode", mode,
					"-wal-dir", dir, "-wal-fsync", "always"}, &out)
			}
			a, err := boot(tc.wrote)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(a.srv)
			postBody(t, ts.URL+"/ingest", "1 10\n1 11\n1 12\n10 2\n11 2\n12 2\n", http.StatusOK)
			ts.Close()
			// Crash: no Close, no checkpoint.

			a2, err := boot(tc.reboot)
			if err == nil {
				a2.durable.Close()
				t.Fatalf("a %s server booted from a %s log", tc.reboot, tc.wrote)
			}
			if !strings.Contains(err.Error(), "log holds "+tc.records+" records") || !strings.Contains(err.Error(), "-mode") {
				t.Errorf("boot error = %v; want it to name the %s records and -mode", err, tc.records)
			}
		})
	}
}

// TestWALRecoveryWindowedMode crashes a -mode=windowed server and
// reboots it from the WAL, asserting the timestamped replay rebuilds
// the same window state.
func TestWALRecoveryWindowedMode(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-addr", ":0", "-k", "32", "-mode", "windowed",
		"-window", "1000", "-gens", "4", "-wal-dir", dir, "-wal-fsync", "always"}

	var out strings.Builder
	a, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv)
	postBody(t, ts.URL+"/ingest", "1 10 100\n2 10 150\n1 11 200\n2 11 300\n", http.StatusOK)
	want := string(getBody(t, ts.URL+"/pair?u=1&v=2"))
	ts.Close()

	out.Reset()
	a2, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.durable.Close()
	if !strings.Contains(out.String(), "recovered") {
		t.Errorf("second boot should report recovery: %q", out.String())
	}
	ts2 := httptest.NewServer(a2.srv)
	defer ts2.Close()
	if got := string(getBody(t, ts2.URL+"/pair?u=1&v=2")); got != want {
		t.Errorf("recovered /pair = %s, want %s", got, want)
	}
}

// TestCheckpointCrossModeBoot saves a checkpoint from a windowed server
// and boots a default-mode server pointed at the same file: the image's
// magic header must win over the -mode flag, restoring a windowed
// engine.
func TestCheckpointCrossModeBoot(t *testing.T) {
	ckpt := t.TempDir() + "/state.lp"
	var out strings.Builder
	a, err := build([]string{"-addr", ":0", "-k", "32", "-mode", "windowed",
		"-window", "1000", "-gens", "4", "-checkpoint", ckpt}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv)
	postBody(t, ts.URL+"/ingest", "1 10 100\n2 10 150\n", http.StatusOK)
	want := string(getBody(t, ts.URL+"/pair?u=1&v=2"))
	ts.Close()
	if err := a.saveCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Default -mode is concurrent; the checkpoint is windowed.
	out.Reset()
	a2, err := build([]string{"-addr", ":0", "-k", "32", "-checkpoint", ckpt}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mode windowed") {
		t.Errorf("restore banner should name the image's mode: %q", out.String())
	}
	ts2 := httptest.NewServer(a2.srv)
	defer ts2.Close()
	if !strings.Contains(string(getBody(t, ts2.URL+"/stats")), `"mode":"windowed"`) {
		t.Errorf("restored server should serve the windowed engine")
	}
	if got := string(getBody(t, ts2.URL+"/pair?u=1&v=2")); got != want {
		t.Errorf("restored /pair = %s, want %s", got, want)
	}
}

// deleteBody issues DELETE against url with a text body and returns the
// response, asserting the status.
func deleteBody(t *testing.T, url, body string, wantStatus int) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s = %d %s, want %d", url, resp.StatusCode, b, wantStatus)
	}
	return string(b)
}

// TestDynamicModeServesDeletes boots -mode=dynamic and exercises the
// retraction surface: DELETE /ingest applies, other modes 400, and the
// degraded gauge shows up in /stats.
func TestDynamicModeServesDeletes(t *testing.T) {
	var out strings.Builder
	a, err := build([]string{"-addr", ":0", "-k", "32", "-mode", "dynamic", "-recover-depth", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv)
	defer ts.Close()
	postBody(t, ts.URL+"/ingest", "1 10\n2 10\n1 11\n2 11\n", http.StatusOK)
	resp := deleteBody(t, ts.URL+"/ingest", "1 11\n2 11\n9 9\n", http.StatusOK)
	if !strings.Contains(resp, `"applied":2`) {
		t.Errorf("delete response missing applied count: %s", resp)
	}
	stats := string(getBody(t, ts.URL+"/stats"))
	if !strings.Contains(stats, `"edges":2`) {
		t.Errorf("stats after deletes: %s", stats)
	}
	if !strings.Contains(stats, `"degraded_registers"`) || !strings.Contains(stats, `"recovery_depth":4`) {
		t.Errorf("stats missing dynamic gauges: %s", stats)
	}

	// Every other mode refuses retractions.
	var out2 strings.Builder
	a2, err := build([]string{"-addr", ":0", "-k", "32"}, &out2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(a2.srv)
	defer ts2.Close()
	deleteBody(t, ts2.URL+"/ingest", "1 2\n", http.StatusBadRequest)
}

// TestWALRecoveryDynamicMode crashes a -mode=dynamic server whose log
// holds interleaved insert and delete records, reboots it, and demands
// the recovered store be byte-identical to the served one.
func TestWALRecoveryDynamicMode(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-addr", ":0", "-k", "32", "-mode", "dynamic", "-recover-depth", "4",
		"-wal-dir", dir, "-wal-fsync", "always"}

	var out strings.Builder
	a, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv)
	postBody(t, ts.URL+"/ingest", "1 10\n2 10\n1 11\n2 11\n1 12\n2 12\n", http.StatusOK)
	deleteBody(t, ts.URL+"/ingest", "1 11\n2 12\n", http.StatusOK)
	postBody(t, ts.URL+"/ingest", "3 10\n", http.StatusOK)
	want := getBody(t, ts.URL+"/checkpoint")
	wantScore := string(getBody(t, ts.URL+"/score?u=1&v=2&measure=jaccard"))
	ts.Close()
	// Crash: no Close, no checkpoint — state lives only in the log.

	out.Reset()
	a2, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.durable.Close()
	if !strings.Contains(out.String(), "recovered") {
		t.Errorf("second boot should report recovery: %q", out.String())
	}
	if got := a2.srv.Engine().NumEdges(); got != 5 {
		t.Errorf("recovered %d edges, want 5 (7 inserts - 2 deletes)", got)
	}
	ts2 := httptest.NewServer(a2.srv)
	defer ts2.Close()
	got := getBody(t, ts2.URL+"/checkpoint")
	if !bytes.Equal(want, got) {
		t.Errorf("recovered store image differs from the served one (%d vs %d bytes)", len(want), len(got))
	}
	if gotScore := string(getBody(t, ts2.URL+"/score?u=1&v=2&measure=jaccard")); gotScore != wantScore {
		t.Errorf("recovered score = %s, want %s", gotScore, wantScore)
	}
}
