// Windowed-server: a sliding-window predictor served over HTTP with
// crash-safe durability — the full lpserver stack, driven as a library.
//
// A timestamped stream is POSTed to a windowed engine through the HTTP
// /ingest endpoint; every accepted batch is logged to a write-ahead log
// before it touches the store. The process then "crashes" (the server
// is abandoned mid-flight, no checkpoint, no graceful close) and
// reboots from the WAL directory alone: the recovered engine must
// answer every query byte-identically to the one that died. A second,
// graceful restart exercises the snapshot path — recovery from the
// checkpoint image instead of a full log replay.
//
// This is the same machinery `lpserver -mode windowed -wal-dir ...`
// runs in production; the example wires it by hand so each moving part
// is visible.
//
// Run with: go run ./examples/windowed-server
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	linkpred "linkpred"
	"linkpred/internal/server"
	"linkpred/internal/wal"
)

// node bundles one serving incarnation: the engine, its durable WAL
// pipeline, and a live HTTP listener.
type node struct {
	eng     linkpred.Engine
	durable *wal.Durable
	http    *http.Server
	url     string
}

// boot builds a windowed engine, recovers whatever state the WAL
// directory holds (snapshot + log tail), and starts serving it on a
// loopback port — the example-sized equivalent of
// `lpserver -mode windowed -window 3600 -gens 6 -wal-dir dir`.
func boot(dir string) (*node, error) {
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode:   linkpred.ModeWindowed,
		Config: linkpred.Config{K: 128, Seed: 7},
		Window: 3600, // one hour of Edge.T units...
		Gens:   6,    // ...expired in six 10-minute generations
	})
	if err != nil {
		return nil, err
	}

	// Recovery first: a snapshot (if any) replaces the empty engine —
	// the image's magic header selects the store — and the log tail
	// replays on top, timestamps intact, so window rotation state is
	// rebuilt exactly.
	res, err := wal.Recover(nil, dir, func(r io.Reader) error {
		loaded, err := linkpred.LoadAnyEngine(r)
		if err != nil {
			return err
		}
		eng = loaded
		return nil
	}, func(rec wal.Record) error {
		eng.ObserveEdges(rec.Edges)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wal recovery: %w", err)
	}
	if res.SnapshotLoaded || res.Replay.Records > 0 {
		fmt.Printf("  recovered: snapshot seq %d + %d replayed edges -> %d vertices, %d edges\n",
			res.SnapshotSeq, res.Replay.Edges, eng.NumVertices(), eng.NumEdges())
	}

	w, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncAlways, NextSeq: res.LastSeq() + 1})
	if err != nil {
		return nil, err
	}
	durable := wal.NewDurable(w, dir, wal.KindEdge, eng.Save)
	srv := server.NewWithOptions(eng, server.Options{Durability: durable, Recovery: &res})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return &node{
		eng:     eng,
		durable: durable,
		http:    hs,
		url:     "http://" + ln.Addr().String(),
	}, nil
}

func post(url, body string) string {
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func main() {
	dir, err := os.MkdirTemp("", "windowed-server-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- incarnation 1: fresh boot, durable ingest -------------------
	fmt.Println("boot #1: empty WAL directory, fresh windowed engine")
	n1, err := boot(dir)
	if err != nil {
		log.Fatal(err)
	}

	// A shared-neighborhood stream inside one window: vertices 1 and 2
	// co-occur with hubs 100..119, timestamps spread over ~30 minutes.
	var b strings.Builder
	t := int64(1000)
	for h := uint64(100); h < 120; h++ {
		fmt.Fprintf(&b, "1 %d %d\n2 %d %d\n", h, t, h, t+40)
		t += 80
	}
	fmt.Printf("  ingest: %s", post(n1.url+"/ingest", b.String()))
	pairBefore := get(n1.url + "/pair?u=1&v=2")
	topkBefore := get(n1.url + "/topk?u=1&candidates=2,100,101,102&k=3&measure=jaccard")
	fmt.Printf("  /pair(1,2) = %s", pairBefore)

	// ---- crash ------------------------------------------------------
	// No checkpoint, no graceful close: the listener is torn down and
	// the engine abandoned. Every accepted /ingest batch was logged and
	// fsynced *before* it was applied, so the state survives in the WAL.
	n1.http.Close()
	fmt.Println("crash: process gone, state lives only in", dir)

	// ---- incarnation 2: recovery ------------------------------------
	fmt.Println("boot #2: recovering from the write-ahead log")
	n2, err := boot(dir)
	if err != nil {
		log.Fatal(err)
	}
	pairAfter := get(n2.url + "/pair?u=1&v=2")
	topkAfter := get(n2.url + "/topk?u=1&candidates=2,100,101,102&k=3&measure=jaccard")
	grade := func(name, before, after string) {
		if before == after {
			fmt.Printf("  %s after recovery: byte-identical ✓\n", name)
		} else {
			fmt.Printf("  %s DIVERGED:\n    before %s    after  %s", name, before, after)
			os.Exit(1)
		}
	}
	grade("/pair", pairBefore, pairAfter)
	grade("/topk", topkBefore, topkAfter)

	// Keep streaming on the recovered node — durability carries across
	// incarnations; these edges land in the same log sequence.
	fmt.Printf("  ingest more: %s", post(n2.url+"/ingest", "1 2 4000\n"))
	pairLinked := get(n2.url + "/pair?u=1&v=2")

	// ---- graceful restart: snapshot path ----------------------------
	// Close() checkpoints the engine into a snapshot and prunes the
	// covered log segments, so boot #3 loads one image instead of
	// replaying every record since the beginning.
	n2.http.Close()
	if err := n2.durable.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("graceful shutdown: checkpoint written, covered segments pruned")

	fmt.Println("boot #3: recovering from the checkpoint snapshot")
	n3, err := boot(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer n3.http.Close()
	defer n3.durable.Close()
	grade("/pair", pairLinked, get(n3.url+"/pair?u=1&v=2"))
	fmt.Printf("  /stats = %s", get(n3.url+"/stats"))
	fmt.Println("done: one WAL directory served three incarnations without losing an edge")
}
