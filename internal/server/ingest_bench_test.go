package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/gen"
	"linkpred/internal/monitor"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// benchEngine builds an engine the way lpserver does by default: K=128,
// 8 shards, KMV distinct degrees.
func benchEngine(b *testing.B) linkpred.Engine {
	b.Helper()
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode:   linkpred.ModeConcurrent,
		Config: linkpred.Config{K: 128, Seed: 42, DistinctDegrees: true},
		Shards: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkIngestHandler sends bench/e2e's ingest shape, one 4096-edge
// binary frame per op, through Server.ServeHTTP on a server set up as
// lpserver's defaults set it up: the stream monitor on and a WAL (in a
// temporary directory) synced on the FsyncInterval timer. The store
// starts from a scale-16 R-MAT base graph of 2^19 edges, and the frames
// continue the same stream.
func BenchmarkIngestHandler(b *testing.B) {
	const base, frameEdges, frames = 1 << 19, 4096, 32
	src, err := gen.RMAT(16, base+frames*frameEdges, .57, .19, .19, .05, 1)
	if err != nil {
		b.Fatal(err)
	}
	edges, err := stream.Collect(src)
	if err != nil {
		b.Fatal(err)
	}
	eng := benchEngine(b)
	eng.ObserveEdges(edges[:base])
	bodies := make([][]byte, frames)
	for i := range bodies {
		if bodies[i], err = wal.EncodeFrame(nil, wal.KindEdge, edges[base+i*frameEdges:][:frameEdges]); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	w, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	d := wal.NewDurable(w, dir, wal.KindEdge, eng.Save)
	b.Cleanup(func() {
		if err := d.Close(); err != nil {
			b.Error(err)
		}
	})
	mon, err := monitor.New(monitor.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewWithOptions(eng, Options{Durability: d, Monitor: mon})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(bodies[i%frames]))
		req.Header.Set("Content-Type", wal.FrameContentType)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkTextIngestHandler sends a 100-line text body per op through
// Server.ServeHTTP (no WAL, no monitor): what a text /ingest request
// costs beyond the edges it applies, the line reader above all.
func BenchmarkTextIngestHandler(b *testing.B) {
	var body bytes.Buffer
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&body, "%d %d\n", i%17, 1000+i)
	}
	srv := New(benchEngine(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body.Bytes()))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
