// Command lpserver runs the streaming link predictor as an HTTP service.
//
// Usage:
//
//	lpserver -addr :8080 -k 128 -shards 8
//	lpserver -addr :8080 -mode directed          # serve an arc stream
//	lpserver -addr :8080 -mode windowed -window 3600 -gens 6
//	lpserver -addr :8080 -warm stream.txt        # pre-ingest a stream file
//	lpserver -addr :8080 -checkpoint state.lp    # restore on start, save on exit
//
// -mode selects the predictor engine behind the same HTTP surface:
// concurrent (default, sharded undirected), single, directed,
// concurrent-directed, windowed (sliding window over Edge.T; set
// -window and -gens), or dynamic (deletion-capable; set -recover-depth
// for the per-register recovery buffer). Every mode serves the full
// endpoint set — /score, /scorebatch, /topk, durable /ingest —
// identically; directed modes read ingested lines as arcs u → v and
// log them to the WAL as arc records, single-writer modes are wrapped
// in a lock so concurrent traffic stays safe, and dynamic mode
// additionally serves DELETE /ingest (retractions, logged as
// KindDelete records and replayed as deletions on recovery).
// Checkpoints are self-describing: on restore (boot -checkpoint, WAL
// snapshot, or POST /restore) the image's magic header selects the
// store, whatever mode wrote it. Log records are not: a boot refuses a
// -wal-dir log the engine cannot replay (arcs into an undirected
// engine, edges into a directed one, deletions outside dynamic mode).
//
// Endpoints (see internal/server):
//
//	POST /ingest      edge lines "u v [t]"
//	GET  /pair?u=&v=
//	GET  /score?u=&v=&measure=
//	GET  /topk?u=&candidates=…&measure=&k=   (candidates optional with -candidates)
//	POST /scorebatch  {"measure": m, "pairs": [{"u":…,"v":…},…]}
//	GET  /stats
//	GET  /metrics     request counters, latency histograms, predictor gauges
//	GET  /healthz     liveness probe
//	GET  /checkpoint  binary predictor image (download)
//	POST /restore     binary predictor image (upload)
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, and when -checkpoint is set the predictor is saved
// to that path (atomically, via fsync + rename) before exit. On the next
// start the same flag restores it, so a restart loses no accumulated
// state.
//
// Crash safety goes further with -wal-dir: every acknowledged /ingest
// batch is appended to a checksummed write-ahead log before it touches
// the sketches (fsync policy via -wal-fsync), and a background
// checkpointer (-checkpoint-interval) snapshots the predictor and prunes
// the log. After a crash — not just a graceful exit — the next start
// loads the newest valid snapshot and replays the WAL tail, truncating
// any torn record, so no acknowledged edge is lost. /metrics reports the
// log and recovery ("wal", "recovery"), and /healthz degrades (still
// 200, with a reason) when fsync or checkpointing starts failing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	linkpred "linkpred"
	"linkpred/internal/candidates"
	"linkpred/internal/monitor"
	"linkpred/internal/server"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// app bundles everything main needs to serve and shut down: the handler
// (whose Predictor method yields the live predictor, which /restore may
// have swapped), the listen address and timeouts, the checkpoint path
// ("" disables persistence), and the durability pipeline (nil without
// -wal-dir).
type app struct {
	srv        *server.Server
	addr       string
	checkpoint string
	readTO     time.Duration
	writeTO    time.Duration
	durable    *wal.Durable
	ckptEvery  time.Duration
}

func main() {
	a, err := build(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpserver:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, a, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lpserver:", err)
		os.Exit(1)
	}
}

// build parses the flags, constructs (and optionally restores or warms)
// the predictor, and returns the configured app — everything main needs
// short of binding the socket, so tests can drive the whole setup
// through httptest.
func build(args []string, stdout io.Writer) (*app, error) {
	fs := flag.NewFlagSet("lpserver", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		mode       = fs.String("mode", linkpred.ModeConcurrent, "engine mode: single | concurrent | directed | concurrent-directed | windowed | dynamic")
		k          = fs.Int("k", 128, "sketch registers per vertex")
		tiers      = fs.String("tiers", "", "tiered register budgets as comma-separated K:PromoteAt rungs (e.g. 16:0,64:8,128:64; last K must equal -k; empty = uniform)")
		expectedV  = fs.Int("expected-vertices", 0, "pre-size vertex maps and register arenas for this many vertices (0 = grow on demand)")
		seed       = fs.Uint64("seed", 42, "hash seed")
		shards     = fs.Int("shards", 8, "lock shards for concurrent ingest (1..65536)")
		window     = fs.Int64("window", 3600, "with -mode windowed: window span in Edge.T units")
		gens       = fs.Int("gens", 4, "with -mode windowed: tumbling generations covering the window")
		recDepth   = fs.Int("recover-depth", 0, "with -mode dynamic: smallest hashes kept per register for deletion recovery (0 = default)")
		distinct   = fs.Bool("distinct-degrees", true, "KMV distinct-degree estimation (robust to duplicate edges)")
		warm       = fs.String("warm", "", "optional stream file to ingest before serving")
		checkpoint = fs.String("checkpoint", "", "restore predictor from this file on start (if present) and save to it on graceful exit")
		maxBody    = fs.Int64("max-body-bytes", 64<<20, "request body cap for /ingest (POST and DELETE), /scorebatch and /restore (0 = unlimited)")
		readTO     = fs.Duration("read-timeout", time.Minute, "HTTP server read timeout")
		writeTO    = fs.Duration("write-timeout", 5*time.Minute, "HTTP server write timeout")
		mon        = fs.Bool("monitor", true, "profile the ingest stream (duplicate rate, distinct counts) in /metrics")
		cand       = fs.Bool("candidates", false, "track candidate vertices on ingest so /topk can omit the candidates parameter")
		candRecent = fs.Int("candidates-recent", 8, "recent neighbors remembered per vertex by -candidates")
		candPool   = fs.Int("candidates-pool", 64, "frequent-vertex pool size shared by -candidates")
		candMaxV   = fs.Int("candidates-max-vertices", 1<<20, "vertex cap for -candidates: tracking a new vertex past the cap evicts the oldest (0 = unbounded)")
		walDir     = fs.String("wal-dir", "", "write-ahead log directory: log every /ingest batch before applying, checkpoint periodically, and recover snapshot+log on start")
		walFsync   = fs.String("wal-fsync", "interval", "WAL fsync policy: always (fsync per batch) | interval (background fsync) | never (crash loses OS-buffered tail)")
		ckptEvery  = fs.Duration("checkpoint-interval", 5*time.Minute, "with -wal-dir, how often the background checkpointer snapshots the predictor and prunes the log")
		healBack   = fs.Duration("heal-backoff", 250*time.Millisecond, "with -wal-dir, first-probe backoff of the WAL self-healer, which repairs the log after a failed write or fsync while ingest sheds with 503 (> 0)")
		maxInflt   = fs.Int("max-inflight", 0, "per-endpoint concurrently executing request cap; excess waits in a bounded queue, overflow is shed with 429 (0 = unlimited)")
		queueDepth = fs.Int("queue-depth", 64, "with -max-inflight, requests allowed to wait for an execution slot before shedding")
		defaultDL  = fs.Duration("default-deadline", 0, "server-assigned deadline per request, overridable via the X-Deadline-Ms header (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *healBack <= 0 {
		return nil, fmt.Errorf("-heal-backoff must be > 0, got %v", *healBack)
	}

	tierLadder, err := linkpred.ParseTiers(*tiers)
	if err != nil {
		return nil, err
	}
	pred, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode:             *mode,
		Config:           linkpred.Config{K: *k, Seed: *seed, DistinctDegrees: *distinct, Tiers: tierLadder},
		Shards:           *shards,
		Window:           *window,
		Gens:             *gens,
		RecoverDepth:     *recDepth,
		ExpectedVertices: *expectedV,
	})
	if err != nil {
		return nil, err
	}

	if *checkpoint != "" {
		restored, err := loadCheckpoint(*checkpoint)
		if err != nil {
			return nil, err
		}
		if restored != nil {
			pred = restored
			fmt.Fprintf(stdout, "restored checkpoint %s (mode %s, %d vertices, %d edges)\n",
				*checkpoint, linkpred.ModeOf(pred), pred.NumVertices(), pred.NumEdges())
		}
	}

	opts := server.Options{
		MaxBodyBytes: *maxBody,
		Admission: server.AdmissionConfig{
			MaxInFlight:     *maxInflt,
			QueueDepth:      *queueDepth,
			DefaultDeadline: *defaultDL,
		},
	}
	built := false
	defer func() {
		if !built && opts.Durability != nil {
			opts.Durability.Close() // build failed after WAL open
		}
	}()
	recovered := false
	if *walDir != "" {
		policy, err := wal.ParseFsyncPolicy(*walFsync)
		if err != nil {
			return nil, err
		}
		var res wal.RecoverResult
		pred, opts.Durability, res, err = server.Boot(*walDir, pred,
			wal.Options{Fsync: policy, Heal: &wal.HealOptions{Backoff: *healBack}})
		if err != nil {
			return nil, err
		}
		recovered = res.SnapshotLoaded || res.Replay.Records > 0
		if recovered {
			fmt.Fprintf(stdout, "recovered %s: snapshot seq %d + %d replayed edges (%d vertices, %d edges)\n",
				*walDir, res.SnapshotSeq, res.Replay.Edges, pred.NumVertices(), pred.NumEdges())
		}
		if res.Replay.TruncatedBytes > 0 {
			fmt.Fprintf(stdout, "wal: truncated %d bytes of torn/corrupt log tail\n", res.Replay.TruncatedBytes)
		}
		opts.Recovery = &res
	}

	var tracker *candidates.Tracker
	if *cand {
		tracker, err = candidates.NewBounded(*candRecent, *candPool, *candMaxV)
		if err != nil {
			return nil, fmt.Errorf("candidate tracker: %w", err)
		}
	}
	opts.Candidates = tracker

	switch {
	case *warm != "" && recovered:
		// The WAL already holds everything from the previous run —
		// including the warm stream it was booted with. Re-ingesting it
		// would double-count every warm edge's arrivals.
		fmt.Fprintf(stdout, "skipping -warm %s: state recovered from %s\n", *warm, *walDir)
	case *warm != "":
		f, err := os.Open(*warm)
		if err != nil {
			return nil, fmt.Errorf("open warm stream: %w", err)
		}
		n := 0
		err = stream.ForEachBatch(stream.NewTextReader(f), 4096, func(batch []stream.Edge) error {
			apply := func(b []stream.Edge) {
				pred.ObserveEdges(b)
				if tracker != nil {
					for _, e := range b {
						tracker.ProcessEdge(e)
					}
				}
			}
			if opts.Durability != nil {
				if err := opts.Durability.Ingest(batch, apply); err != nil {
					return err
				}
			} else {
				apply(batch)
			}
			n += len(batch)
			return nil
		})
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("warm ingest: %w", err)
		}
		fmt.Fprintf(stdout, "warmed with %d edges (%d vertices)\n", n, pred.NumVertices())
	}

	if *mon {
		opts.Monitor, err = monitor.New(monitor.Config{Seed: *seed})
		if err != nil {
			return nil, fmt.Errorf("stream monitor: %w", err)
		}
	}
	fmt.Fprintf(stdout, "serving %s sketch k=%d\n", linkpred.ModeOf(pred), *k)
	srv := server.NewWithOptions(pred, opts)
	if opts.Durability != nil {
		opts.Durability.StartCheckpointer(*ckptEvery)
	}
	built = true
	return &app{
		srv:        srv,
		addr:       *addr,
		checkpoint: *checkpoint,
		readTO:     *readTO,
		writeTO:    *writeTO,
		durable:    opts.Durability,
		ckptEvery:  *ckptEvery,
	}, nil
}

// run serves until the context is cancelled (signal) or the listener
// fails, then drains in-flight requests and checkpoints the predictor.
func run(ctx context.Context, a *app, stdout io.Writer) error {
	httpSrv := &http.Server{
		Addr:         a.addr,
		Handler:      a.srv,
		ReadTimeout:  a.readTO,
		WriteTimeout: a.writeTO,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "lpserver listening on %s\n", a.addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		// Drain window expired; the checkpoint below still captures the
		// predictor (ingest is monotone, a partial request loses only
		// its own tail).
		fmt.Fprintln(stdout, "shutdown:", err)
	}
	if a.durable != nil {
		// Final checkpoint: snapshot the predictor and prune the log, so
		// the next boot recovers from the snapshot without a replay.
		if err := a.durable.Close(); err != nil {
			fmt.Fprintln(stdout, "wal close:", err)
		} else {
			fmt.Fprintln(stdout, "wal checkpointed and closed")
		}
	}
	if a.checkpoint == "" {
		return nil
	}
	if err := a.saveCheckpoint(); err != nil {
		return fmt.Errorf("save checkpoint: %w", err)
	}
	fmt.Fprintf(stdout, "checkpoint saved to %s\n", a.checkpoint)
	return nil
}

// loadCheckpoint reads a predictor image from path; the image's magic
// header selects the engine mode, whatever wrote it. A missing file is
// not an error — it is the normal first boot — and yields (nil, nil).
func loadCheckpoint(path string) (linkpred.Engine, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("open checkpoint: %w", err)
	}
	defer f.Close()
	pred, err := linkpred.LoadAnyEngine(f)
	if err != nil {
		return nil, fmt.Errorf("load checkpoint %s: %w", path, err)
	}
	return pred, nil
}

// saveCheckpoint writes the live predictor (the one currently served,
// which /restore may have swapped in) to the checkpoint path. The write
// is atomic and durable: temp file in the same directory, fsynced, then
// renamed over the target with the directory fsynced too, so neither a
// crash mid-write nor one just after the rename can leave a corrupt or
// missing image.
func (a *app) saveCheckpoint() error {
	return wal.AtomicWriteFile(a.checkpoint, func(w io.Writer) error {
		return a.srv.Engine().Save(w)
	})
}
