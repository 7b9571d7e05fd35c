package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	linkpred "linkpred"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

func TestBuildAndServe(t *testing.T) {
	warm := t.TempDir() + "/warm.txt"
	if err := os.WriteFile(warm, []byte("1 2\n2 3\n1 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	a, err := build([]string{"-addr", ":0", "-k", "32", "-warm", warm}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if a.addr != ":0" {
		t.Errorf("addr = %q", a.addr)
	}
	if !strings.Contains(out.String(), "warmed with 3 edges") {
		t.Errorf("warm summary missing: %q", out.String())
	}
	ts := httptest.NewServer(a.srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"edges":3`) {
		t.Errorf("stats = %d %s", resp.StatusCode, body)
	}
}

func TestBuildErrors(t *testing.T) {
	var out strings.Builder
	if _, err := build([]string{"-k", "0"}, &out); err == nil {
		t.Error("bad K should error")
	}
	if _, err := build([]string{"-warm", "/no/such/file"}, &out); err == nil {
		t.Error("missing warm file should error")
	}
	if _, err := build([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag should error")
	}
	if _, err := build([]string{"-wal-dir", t.TempDir(), "-heal-backoff", "0"}, &out); err == nil {
		t.Error("-heal-backoff 0 should error")
	}
	warm := t.TempDir() + "/bad.txt"
	if err := os.WriteFile(warm, []byte("not an edge\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := build([]string{"-warm", warm}, &out); err == nil {
		t.Error("malformed warm stream should error")
	}
	junk := t.TempDir() + "/junk.lp"
	if err := os.WriteFile(junk, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := build([]string{"-checkpoint", junk}, &out); err == nil {
		t.Error("corrupt checkpoint should error")
	}
}

// getBody fetches a URL and returns the raw response bytes.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d %s", url, resp.StatusCode, body)
	}
	return body
}

func TestCheckpointRoundTrip(t *testing.T) {
	ckpt := t.TempDir() + "/state.lp"
	flags := []string{"-addr", ":0", "-k", "64", "-checkpoint", ckpt}

	var out strings.Builder
	a, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	// A missing checkpoint is the normal first boot, not an error.
	if strings.Contains(out.String(), "restored") {
		t.Errorf("fresh boot should not restore: %q", out.String())
	}

	ts := httptest.NewServer(a.srv)
	resp, err := http.Post(ts.URL+"/ingest", "text/plain",
		strings.NewReader("1 2\n2 3\n1 3\n3 4\n4 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := getBody(t, ts.URL+"/pair?u=1&v=3")
	ts.Close()

	if err := a.saveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file should be renamed away")
	}

	// Reboot with the same flags: state must come back byte-identical.
	out.Reset()
	a2, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "restored checkpoint") {
		t.Errorf("second boot should report restore: %q", out.String())
	}
	ts2 := httptest.NewServer(a2.srv)
	defer ts2.Close()
	got := getBody(t, ts2.URL+"/pair?u=1&v=3")
	if string(got) != string(want) {
		t.Errorf("/pair after restore = %s, want %s", got, want)
	}
}

func TestRunShutdownSavesCheckpoint(t *testing.T) {
	ckpt := t.TempDir() + "/state.lp"
	var out strings.Builder
	a, err := build([]string{"-addr", "127.0.0.1:0", "-k", "32", "-checkpoint", ckpt}, &out)
	if err != nil {
		t.Fatal(err)
	}
	a.srv.Engine().ObserveEdge(linkpred.Edge{U: 1, V: 2})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, a, &out) }()
	time.Sleep(50 * time.Millisecond) // let the listener bind
	cancel()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.Contains(out.String(), "checkpoint saved") {
		t.Errorf("shutdown log missing checkpoint: %q", out.String())
	}
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	f.Close()
}

func TestWALRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-addr", ":0", "-k", "32", "-wal-dir", dir, "-wal-fsync", "always"}

	var out strings.Builder
	a, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv)
	resp, err := http.Post(ts.URL+"/ingest", "text/plain",
		strings.NewReader("1 2\n2 3\n1 3\n3 4\n4 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	want := getBody(t, ts.URL+"/pair?u=1&v=3")
	metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `"wal"`) || !strings.Contains(string(metrics), `"recovery"`) {
		t.Errorf("/metrics missing wal/recovery sections: %s", metrics)
	}
	ts.Close()
	// Crash: abandon the app without Close — no final checkpoint, the
	// state lives only in the fsynced log.

	out.Reset()
	a2, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.durable.Close()
	if !strings.Contains(out.String(), "recovered") {
		t.Errorf("second boot should report recovery: %q", out.String())
	}
	if n := a2.srv.Engine().NumEdges(); n != 5 {
		t.Errorf("recovered %d edges, want 5", n)
	}
	ts2 := httptest.NewServer(a2.srv)
	defer ts2.Close()
	if got := getBody(t, ts2.URL+"/pair?u=1&v=3"); string(got) != string(want) {
		t.Errorf("/pair after crash recovery = %s, want %s", got, want)
	}
	health := getBody(t, ts2.URL+"/healthz")
	if !strings.Contains(string(health), `"status":"ok"`) {
		t.Errorf("healthz after recovery = %s", health)
	}
}

func TestWALSkipsWarmAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	warm := t.TempDir() + "/warm.txt"
	if err := os.WriteFile(warm, []byte("1 2\n2 3\n1 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-addr", ":0", "-k", "32", "-warm", warm,
		"-wal-dir", dir, "-wal-fsync", "always"}

	var out strings.Builder
	a, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warmed with 3 edges") {
		t.Errorf("first boot should warm: %q", out.String())
	}
	// Graceful shutdown path: final checkpoint + prune.
	if err := a.durable.Close(); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	a2, err := build(flags, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.durable.Close()
	if !strings.Contains(out.String(), "skipping -warm") {
		t.Errorf("second boot should skip warm: %q", out.String())
	}
	if n := a2.srv.Engine().NumEdges(); n != 3 {
		t.Errorf("recovered %d edges, want 3 (warm must not double-ingest)", n)
	}
}

// TestWALRefusesLossyFallback: when the only snapshot fails its
// checksum and the checkpoint that wrote it has pruned the log it
// covered, booting would serve a store missing acknowledged edges.
// lpserver must refuse to start and name the snapshot.
func TestWALRefusesLossyFallback(t *testing.T) {
	dir := t.TempDir()
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{Mode: linkpred.ModeConcurrent, Config: linkpred.Config{K: 32, Seed: 42}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncAlways, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d := wal.NewDurable(w, dir, wal.KindEdge, eng.Save)
	ingest := func(from, to uint64) {
		var batch []stream.Edge
		for u := from; u < to; u++ {
			batch = append(batch, stream.Edge{U: u, V: u + 1})
		}
		if err := d.Ingest(batch, func(es []stream.Edge) {
			for _, e := range es {
				eng.ObserveEdge(linkpred.Edge{U: e.U, V: e.V})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for u := uint64(0); u < 2000; u += 100 {
		ingest(u, u+100)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingest(2000, 2100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap-00000000000007d0.snap") // seq 2000
	img, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 1
	if err := os.WriteFile(snap, img, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := build([]string{"-addr", ":0", "-k", "32", "-wal-dir", dir}, &out); err == nil ||
		!strings.Contains(err.Error(), filepath.Base(snap)) {
		t.Fatalf("boot over a corrupt snapshot and a pruned log = %v; want an error naming %s", err, filepath.Base(snap))
	}
}
