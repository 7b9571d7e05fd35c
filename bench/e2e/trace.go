package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	linkpred "linkpred"
	"linkpred/internal/monitor"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started. A request's handler span has the request id
// as ID; calls that receive the request context carry it as Parent; calls
// without a context (the durable apply closure, file writes) have none.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Status int    `json:"status,omitempty"` // handler spans only
	Bytes  int    `json:"bytes,omitempty"`  // wal.write spans only
}

// tracer keeps every span in memory until the server exits.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// Set once at boot.
	recoverNS, loadNS int64
	// gauges fills the engine's gauges into a report.
	gauges func(*layerReport)

	// The measured window, marked by the client, with runtime samples at
	// its edges.
	markMu     sync.Mutex
	begin, end int64
	rtBegin    runtimeSample
	rtEnd      runtimeSample
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type spanKey struct{}

// parentOf returns the request id the handler decorator put in ctx.
func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// statusWriter captures the response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// endpointOf names the server endpoint a request is routed to.
func endpointOf(r *http.Request) string {
	switch r.URL.Path {
	case "/ingest":
		return "ingest"
	case "/topk":
		return "topk"
	case "/scorebatch":
		return "scorebatch"
	}
	return "other"
}

// handler wraps the server in a span per request and serves the
// benchmark's own /bench/mark and /bench/layers, which are not traced.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/bench/mark":
			t.mark(r.URL.Query().Get("at") == "end")
			return
		case "/bench/layers":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(t.layers())
			return
		}
		id := t.nextID.Add(1)
		start := t.now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{Name: "server." + endpointOf(r), Start: start, End: t.now(), ID: id, Status: sw.status})
	})
}

// runtimeSample is the server process's runtime counters at one instant.
type runtimeSample struct {
	GCCPU      float64 // seconds
	AllocBytes uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{GCCPU: s[0].Value.Float64(), AllocBytes: s[1].Value.Uint64()}
}

func (t *tracer) mark(end bool) {
	now, rt := t.now(), readRuntime()
	t.markMu.Lock()
	defer t.markMu.Unlock()
	if end {
		t.end, t.rtEnd = now, rt
	} else {
		t.begin, t.rtBegin = now, rt
	}
}

// writeFile saves every span as trace.json.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine times the engine calls and feeds the stream monitor
// itself, under its own mutex, so monitor time is a span of its own. It
// implements the context-aware interfaces the server looks for, so query
// spans carry the request id.
type tracedEngine struct {
	linkpred.Engine
	tr    *tracer
	monMu sync.Mutex
	mon   *monitor.StreamMonitor
}

var (
	_ linkpred.CtxQuerier  = (*tracedEngine)(nil)
	_ linkpred.CtxIngester = (*tracedEngine)(nil)
)

// ObserveEdges is what the durable ingest path calls: no request context.
func (e *tracedEngine) ObserveEdges(edges []linkpred.Edge) {
	start := e.tr.now()
	e.Engine.ObserveEdges(edges)
	e.tr.add(span{Name: "core.apply", Start: start, End: e.tr.now()})
	e.feedMonitor(0, edges)
}

func (e *tracedEngine) ObserveEdge(edge linkpred.Edge) { e.ObserveEdges([]linkpred.Edge{edge}) }

func (e *tracedEngine) ObserveEdgesCtx(ctx context.Context, edges []linkpred.Edge) error {
	ci, _ := linkpred.CtxIngesterOf(e.Engine)
	start := e.tr.now()
	err := ci.ObserveEdgesCtx(ctx, edges)
	e.tr.add(span{Name: "core.apply", Start: start, End: e.tr.now(), Parent: parentOf(ctx)})
	if err == nil {
		e.feedMonitor(parentOf(ctx), edges)
	}
	return err
}

// feedMonitor is the server's monitor feed with the mutex wait and the
// work as separate spans.
func (e *tracedEngine) feedMonitor(parent uint64, edges []linkpred.Edge) {
	t0 := e.tr.now()
	e.monMu.Lock()
	t1 := e.tr.now()
	for _, edge := range edges {
		e.mon.ProcessEdge(stream.Edge{U: edge.U, V: edge.V, T: edge.T})
	}
	e.monMu.Unlock()
	t2 := e.tr.now()
	e.tr.add(span{Name: "monitor.wait", Start: t0, End: t1, Parent: parent})
	e.tr.add(span{Name: "monitor.busy", Start: t1, End: t2, Parent: parent})
}

func (e *tracedEngine) TopKCtx(ctx context.Context, m linkpred.Measure, u uint64, cands []uint64, k int) ([]linkpred.Candidate, error) {
	cq, _ := linkpred.CtxQuerierOf(e.Engine)
	start := e.tr.now()
	out, err := cq.TopKCtx(ctx, m, u, cands, k)
	e.tr.add(span{Name: "core.topk", Start: start, End: e.tr.now(), Parent: parentOf(ctx)})
	return out, err
}

func (e *tracedEngine) ScoreBatchCtx(ctx context.Context, m linkpred.Measure, u uint64, cands []uint64) ([]float64, error) {
	cq, _ := linkpred.CtxQuerierOf(e.Engine)
	start := e.tr.now()
	out, err := cq.ScoreBatchCtx(ctx, m, u, cands)
	e.tr.add(span{Name: "core.scorebatch", Start: start, End: e.tr.now(), Parent: parentOf(ctx)})
	return out, err
}

// tracedFS times the WAL's file writes and fsyncs.
type tracedFS struct {
	wal.FS
	tr *tracer
}

func (f tracedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.tr}, nil
}

func (f tracedFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.tr}, nil
}

type tracedFile struct {
	wal.File
	tr *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := f.tr.now()
	n, err := f.File.Write(p)
	f.tr.add(span{Name: "wal.write", Start: start, End: f.tr.now(), Bytes: n})
	return n, err
}

func (f tracedFile) Sync() error {
	start := f.tr.now()
	err := f.File.Sync()
	f.tr.add(span{Name: "wal.fsync", Start: start, End: f.tr.now()})
	return err
}

// endpointTotals sums the handler spans of one endpoint and the child
// spans attributed to it.
type endpointTotals struct {
	Requests int              `json:"requests"`
	Non2xx   int              `json:"non2xx"`
	WallNS   int64            `json:"wall_ns"`
	Children map[string]int64 `json:"children_ns"`
}

// spanTotals sums the spans of one name.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalNS int64   `json:"total_ns"`
	P99NS   float64 `json:"p99_ns"`
	Bytes   int64   `json:"bytes,omitempty"` // wal.write only
}

// layerReport is the traced server's account of the measured window.
type layerReport struct {
	WindowNS   int64                      `json:"window_ns"`
	Endpoints  map[string]*endpointTotals `json:"endpoints"`
	Spans      map[string]*spanTotals     `json:"spans"`
	RecoverNS  int64                      `json:"recover_ns"`
	LoadNS     int64                      `json:"load_ns"`
	Runtime    runtimeSample              `json:"runtime"`
	StoreBytes int                        `json:"store_bytes"`
	Pipeline   linkpred.PipelineStats     `json:"pipeline"`
}

// unparented names the spans recorded without a request context and the
// endpoint they belong to. /ingest is their only synchronous caller
// (log-before-apply runs inside the handler), so summing them per
// endpoint is exact. wal.fsync is absent: under -wal-fsync interval it
// runs on the WAL's own timer goroutine, outside every handler.
var unparented = map[string]string{
	"core.apply":   "ingest",
	"monitor.wait": "ingest",
	"monitor.busy": "ingest",
	"wal.write":    "ingest",
}

// layers aggregates the spans inside the marked window.
func (t *tracer) layers() layerReport {
	t.markMu.Lock()
	begin, end, rt0, rt1 := t.begin, t.end, t.rtBegin, t.rtEnd
	t.markMu.Unlock()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	rep := layerReport{
		WindowNS:  end - begin,
		Endpoints: make(map[string]*endpointTotals),
		Spans:     make(map[string]*spanTotals),
		RecoverNS: t.recoverNS,
		LoadNS:    t.loadNS,
		Runtime: runtimeSample{
			GCCPU:      rt1.GCCPU - rt0.GCCPU,
			AllocBytes: rt1.AllocBytes - rt0.AllocBytes,
		},
	}
	endpoint := func(name string) *endpointTotals {
		ep := rep.Endpoints[name]
		if ep == nil {
			ep = &endpointTotals{Children: make(map[string]int64)}
			rep.Endpoints[name] = ep
		}
		return ep
	}
	byID := make(map[uint64]string)
	durs := make(map[string][]float64)
	for _, s := range spans {
		if s.Start < begin || s.End > end {
			continue
		}
		d := s.End - s.Start
		if s.Status != 0 {
			name := s.Name[len("server."):]
			byID[s.ID] = name
			ep := endpoint(name)
			ep.Requests++
			ep.WallNS += d
			if s.Status/100 != 2 {
				ep.Non2xx++
			}
			continue
		}
		st := rep.Spans[s.Name]
		if st == nil {
			st = &spanTotals{}
			rep.Spans[s.Name] = st
		}
		st.Count++
		st.TotalNS += d
		st.Bytes += int64(s.Bytes)
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	for _, s := range spans {
		if s.Status != 0 || s.Start < begin || s.End > end {
			continue
		}
		owner := unparented[s.Name]
		if s.Parent != 0 {
			owner = byID[s.Parent]
		}
		if owner != "" {
			endpoint(owner).Children[s.Name] += s.End - s.Start
		}
	}
	for name, ds := range durs {
		rep.Spans[name].P99NS = percentile(ds, 0.99)
	}
	if t.gauges != nil {
		t.gauges(&rep)
	}
	return rep
}
