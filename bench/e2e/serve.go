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
	"sync/atomic"
	"syscall"
	"time"

	linkpred "linkpred"
	"linkpred/internal/monitor"
	"linkpred/internal/server"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// serveMain is the -serve child: it boots exactly as lpserver does with
// its shipped defaults, using the same public calls, and with -plain
// unset wraps the HTTP handler, the engine and the WAL's filesystem in
// timing decorators. It writes every span to -trace-out on SIGTERM.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	walDir := fs.String("wal-dir", "", "write-ahead log directory")
	traceOut := fs.String("trace-out", "trace.json", "span file written at exit")
	plain := fs.Bool("plain", false, "serve without the timing decorators")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var tr *tracer
	if !*plain {
		tr = newTracer()
	}
	if err := serve(*addr, *walDir, tr, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	return 0
}

// serve mirrors lpserver's build and run for the default flags plus
// -addr and -wal-dir. tr nil serves undecorated.
func serve(addr, walDir string, tr *tracer, traceOut string) error {
	pred, err := linkpred.NewEngine(serverSpec())
	if err != nil {
		return err
	}
	var fsys wal.FS = wal.OSFS{}
	if tr != nil {
		fsys = tracedFS{fsys, tr}
	}
	recoverStart := time.Now()
	var loadDur time.Duration
	res, err := wal.RecoverBatched(fsys, walDir, func(r io.Reader) error {
		t0 := time.Now()
		loaded, err := linkpred.LoadAnyEngine(r)
		loadDur += time.Since(t0)
		if err != nil {
			return err
		}
		pred = loaded
		if pl, ok := linkpred.PipelinerOf(pred); ok {
			pl.StartIngestPipeline(0, 0)
		}
		return nil
	}, func(kind wal.Kind, edges []stream.Edge) error {
		if kind == wal.KindDelete {
			return errors.New("log holds delete records; the benchmark never writes them")
		}
		if ai, ok := linkpred.AsyncIngesterOf(pred); ok {
			ai.ObserveEdgesAsync(toEdges(edges))
			return nil
		}
		pred.ObserveEdges(toEdges(edges))
		return nil
	}, wal.BatchedReplayOptions{})
	if err != nil {
		return fmt.Errorf("wal recovery: %w", err)
	}
	if ai, ok := linkpred.AsyncIngesterOf(pred); ok {
		ai.FlushIngest()
	}
	recoverDur := time.Since(recoverStart)
	w, err := wal.Open(walDir, wal.Options{
		FS:      fsys,
		Fsync:   wal.FsyncInterval,
		NextSeq: res.LastSeq() + 1,
		Heal:    &wal.HealOptions{Backoff: 250 * time.Millisecond},
	})
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	mon, err := monitor.New(monitor.Config{Seed: serverSpec().Config.Seed})
	if err != nil {
		return err
	}
	opts := server.Options{
		MaxBodyBytes: 64 << 20,
		Admission:    server.AdmissionConfig{QueueDepth: 64},
		Recovery:     &res,
	}
	eng := pred
	if tr != nil {
		tr.recoverNS, tr.loadNS = int64(recoverDur-loadDur), int64(loadDur)
		eng = &tracedEngine{Engine: pred, tr: tr, mon: mon}
		tr.gauges = func(rep *layerReport) {
			rep.StoreBytes = pred.MemoryBytes()
			if pl, ok := linkpred.PipelinerOf(pred); ok {
				rep.Pipeline, _ = pl.IngestPipelineStats()
			}
		}
	} else {
		opts.Monitor = mon
	}
	var holder atomic.Pointer[server.Server]
	opts.Durability = wal.NewDurable(w, walDir, wal.KindEdge, func(wr io.Writer) error {
		return holder.Load().Engine().Save(wr)
	})
	srv := server.NewWithOptions(eng, opts)
	holder.Store(srv)
	opts.Durability.StartCheckpointer(5 * time.Minute)

	var handler http.Handler = srv
	if tr != nil {
		handler = tr.handler(srv)
	}
	httpSrv := &http.Server{Addr: addr, Handler: handler, ReadTimeout: time.Minute, WriteTimeout: 5 * time.Minute}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// lpserver's shutdown order: drain HTTP, quiesce the pipeline, close
	// the WAL with a final checkpoint.
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutCtx)
	if ai, ok := linkpred.AsyncIngesterOf(pred); ok {
		ai.FlushIngest()
	}
	if pl, ok := linkpred.PipelinerOf(pred); ok {
		pl.StopIngestPipeline()
	}
	err = errors.Join(err, opts.Durability.Close())
	if tr != nil {
		err = errors.Join(err, tr.writeFile(traceOut))
	}
	return err
}
