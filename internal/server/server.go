// Package server exposes a streaming link predictor over HTTP: edges go
// in as text lines, estimates come out as JSON. It exists so the sketch
// can sit behind an event pipeline (a webhook, a log shipper, a message
// consumer) without the producer linking Go code.
//
// Endpoints:
//
//	POST /ingest          body: edge list, "u v [t]" per line → {"ingested": n};
//	                      with Content-Type application/x-lp-edges the body is
//	                      binary crc/len-framed edge records (the WAL record
//	                      layout), one batch per frame with no text parsing;
//	                      KindDelete frames in the stream retract edges on
//	                      engines that can delete (-mode=dynamic)
//	DELETE /ingest        same body formats, but every edge is a retraction:
//	                      {"deleted": n, "applied": a} where a counts deletions
//	                      the store accepted. 400 unless the engine can delete;
//	                      binary frames must be KindDelete
//	GET  /pair?u=&v=      all measure estimates for one pair
//	GET  /score?u=&v=&measure=jaccard|common-neighbors|adamic-adar|resource-allocation|preferential-attachment|cosine
//	GET  /topk?u=&candidates=1,2,3&measure=&k=   ranked candidates (candidates optional with a tracker)
//	POST /scorebatch      body: {"measure": m, "pairs": [{"u":…,"v":…},…]} → aligned scores
//	GET  /stats           vertex/edge counts and memory
//	GET  /metrics         request counters, latency histograms, predictor gauges (?format=expvar for a flat map)
//	GET  /healthz         liveness probe
//	GET  /checkpoint      download the predictor state (binary)
//	POST /restore         replace the predictor with an uploaded checkpoint
//
// The server wraps any linkpred.Engine — the sharded default, the
// directed modes, or a Synchronized windowed predictor — so ingest and
// queries may overlap freely regardless of mode. Queries go through the
// engine's batched read path where the store has one: /topk
// deduplicates, scores every candidate in place from per-shard banks,
// and heap-selects k; /scorebatch groups its pair list by source vertex
// and scores each group in one batch. On directed engines /ingest reads
// arcs u → v and pair queries score the candidate arc. Restore accepts
// a checkpoint of *any* mode (the image's magic header selects the
// store) and swaps the engine atomically; in-flight queries finish
// against the old state, and ingest batches applied after the swap go
// to the new engine.
//
// Both /ingest verbs and both body formats run one loop over the body's
// batches (4096 text lines, or one frame): check the deadline and the
// batch's kind, then, under Options.Durability, append the batch to the
// write-ahead log (a frame's bytes as received) and apply it, or,
// without a WAL, apply it, inserts under the request context; applied
// inserts feed the stream monitor and candidate tracker. The response
// reports the batches applied before any failure.
//
// Request bodies on /ingest (POST and DELETE), /scorebatch and
// /restore are capped by Options.MaxBodyBytes (oversized uploads get
// 413), and every endpoint is instrumented: counts, error counts, and
// latency histograms are served back on /metrics (/scorebatch
// additionally keeps a per-measure latency breakdown).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	linkpred "linkpred"
	"linkpred/internal/candidates"
	"linkpred/internal/monitor"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// Options configures the optional hardening knobs of a Server. The zero
// value keeps the historical behavior: no body limit, no stream profile.
type Options struct {
	// MaxBodyBytes caps the request body accepted on POST and DELETE
	// /ingest, POST /scorebatch and POST /restore; oversized uploads are
	// rejected with 413. Zero means unlimited.
	MaxBodyBytes int64
	// Monitor, when non-nil, receives every ingested edge and its
	// constant-space stream profile (distinct edges/vertices, duplicate
	// rate, heavy hitters) is folded into GET /metrics under "stream".
	Monitor *monitor.StreamMonitor
	// Candidates, when non-nil, receives every ingested edge and lets
	// GET /topk omit the candidates parameter: the tracker proposes the
	// query vertex's recent neighbors and frequent stream vertices
	// instead. Without a tracker, /topk without candidates is 400.
	Candidates *candidates.Tracker
	// Durability, when non-nil, routes every /ingest batch through the
	// write-ahead log before it is applied: a batch is acknowledged only
	// once the log has it under the configured fsync policy, and a WAL
	// append failure aborts the request with 503 (the durable prefix is
	// reported, nothing beyond it was applied). /metrics gains a "wal"
	// section and /healthz degrades — still 200, with a reason — when
	// the last fsync or checkpoint failed. POST /restore writes the
	// uploaded image as the snapshot at the log's last sequence number
	// before it swaps the predictor (Durable.Restore), so a crash
	// recovers the restored state plus the batches logged after it; a
	// failed snapshot is 503 and swaps nothing, and an image whose
	// orientation differs from the served predictor's is 400, because
	// the log's record kind is fixed when it is opened.
	Durability *wal.Durable
	// Recovery, when non-nil, is the boot-time recovery summary (which
	// snapshot seeded the store, how much WAL tail was replayed),
	// reported under "recovery" in /metrics.
	Recovery *wal.RecoverResult
	// Admission configures overload shedding (per-endpoint concurrency
	// limits with bounded wait queues) and default request deadlines;
	// see AdmissionConfig. The zero value disables both.
	Admission AdmissionConfig
}

// engineBox wraps the interface value so it can live in an
// atomic.Pointer (which needs a concrete pointee type).
type engineBox struct {
	e linkpred.Engine
}

// Server is the HTTP facade over a linkpred.Engine. The engine must be
// safe for concurrent use (every engine NewEngine or LoadAnyEngine
// returns is; wrap raw single-writer predictors in
// linkpred.Synchronize).
type Server struct {
	eng       atomic.Pointer[engineBox]
	mux       *http.ServeMux
	opts      Options
	metrics   *metrics
	admission map[string]*limiter // per-endpoint admission gates (nil entries = exempt)
	monMu     sync.Mutex          // guards opts.Monitor (StreamMonitor is not thread-safe)
	candMu    sync.Mutex          // guards opts.Candidates (Tracker is not thread-safe)
}

// New returns a Server wrapping eng with default Options.
func New(eng linkpred.Engine) *Server { return NewWithOptions(eng, Options{}) }

// NewWithOptions returns a Server wrapping eng with the given Options.
func NewWithOptions(eng linkpred.Engine, opts Options) *Server {
	s := &Server{mux: http.NewServeMux(), opts: opts}
	s.eng.Store(&engineBox{e: eng})
	endpoints := []struct {
		pattern, name string
		h             http.HandlerFunc
	}{
		{"POST /ingest", "ingest", s.handleIngest},
		{"DELETE /ingest", "delete", s.handleIngest},
		{"GET /pair", "pair", s.handlePair},
		{"GET /score", "score", s.handleScore},
		{"GET /topk", "topk", s.handleTopK},
		{"POST /scorebatch", "scorebatch", s.handleScoreBatch},
		{"GET /stats", "stats", s.handleStats},
		{"GET /metrics", "metrics", s.handleMetrics},
		{"GET /healthz", "healthz", s.handleHealthz},
		{"GET /checkpoint", "checkpoint", s.handleCheckpoint},
		{"POST /restore", "restore", s.handleRestore},
	}
	names := make([]string, len(endpoints))
	for i, e := range endpoints {
		names[i] = e.name
	}
	s.metrics = newMetrics(names)
	s.admission = make(map[string]*limiter)
	for _, e := range endpoints {
		if !admissionExempt[e.name] {
			if l := newLimiter(opts.Admission); l != nil {
				s.admission[e.name] = l
			}
		}
		s.mux.HandleFunc(e.pattern, s.instrument(e.name, e.h))
	}
	return s
}

// engine returns the current engine (restore may swap it).
func (s *Server) engine() linkpred.Engine { return s.eng.Load().e }

// Engine returns the engine currently serving queries. Callers that
// checkpoint on shutdown must use this rather than the engine the
// Server was constructed with — POST /restore may have swapped it (and
// possibly changed its mode).
func (s *Server) Engine() linkpred.Engine { return s.eng.Load().e }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-endpoint request counting and
// latency observation, plus — on the serving endpoints — deadline
// assignment and admission control: the request context gets the
// server default deadline (or the client's X-Deadline-Ms override)
// before admission, so time spent queued counts against the budget,
// and requests the limiter cannot seat are shed with 429 + Retry-After
// before they touch the engine.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	lim := s.admission[name]
	exempt := admissionExempt[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if !exempt {
			if d := s.requestDeadline(r); d > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), d)
				defer cancel()
				r = r.WithContext(ctx)
			}
			if lim != nil {
				switch lim.acquire(r.Context()) {
				case shedQueueFull:
					s.metrics.shedQueueFull.Add(1)
					s.retryAfter(rec)
					writeError(rec, http.StatusTooManyRequests,
						"overloaded: %s admission queue full", name)
					em.observe(time.Since(start), rec.status)
					return
				case shedDeadline:
					s.metrics.shedDeadline.Add(1)
					s.retryAfter(rec)
					writeError(rec, http.StatusTooManyRequests,
						"overloaded: deadline expired while queued for %s", name)
					em.observe(time.Since(start), rec.status)
					return
				case admitted:
					defer lim.release()
				}
			}
		}
		h(rec, r)
		em.observe(time.Since(start), rec.status)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures after WriteHeader cannot be reported to the
	// client; the error is intentionally dropped (the connection is
	// already committed).
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// cappedBody wraps a capped request body and records whether the cap
// was ever hit. Decoders downstream (bufio fills, binary readers) may
// observe the *http.MaxBytesError and then fail on the truncated data
// with an error of their own — bad magic, short read — that hides the
// original type from errors.As. The flag survives that.
type cappedBody struct {
	io.ReadCloser
	hit bool
}

func (cb *cappedBody) Read(p []byte) (int, error) {
	n, err := cb.ReadCloser.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		cb.hit = true
	}
	return n, err
}

// limitBody applies the configured body cap to a request and returns
// the wrapper the upload handlers consult to translate cap overruns
// to 413.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) *cappedBody {
	body := r.Body
	if s.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, body, s.opts.MaxBodyBytes)
	}
	cb := &cappedBody{ReadCloser: body}
	r.Body = cb
	return cb
}

// uploadStatus maps an upload error to its HTTP status: 413 when the
// body cap was hit, 400 for anything else (malformed lines, bad
// checkpoint images).
func uploadStatus(err error, body *cappedBody) int {
	var mbe *http.MaxBytesError
	if body.hit || errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ingestBatchSize is the edge count per text /ingest batch (a binary
// frame is one batch whatever its size): large enough to amortize
// hashing and shard locking (and, with Durability, one WAL record and
// fsync per batch), small enough that the durable prefix reported after
// a mid-request failure is fine-grained.
const ingestBatchSize = 4096

// feedMonitors folds an applied batch into the optional stream monitor
// and candidate tracker.
func (s *Server) feedMonitors(batch []stream.Edge) {
	if s.opts.Monitor != nil {
		s.monMu.Lock()
		for _, e := range batch {
			s.opts.Monitor.ProcessEdge(e)
		}
		s.monMu.Unlock()
	}
	if s.opts.Candidates != nil {
		s.candMu.Lock()
		for _, e := range batch {
			s.opts.Candidates.ProcessEdge(e)
		}
		s.candMu.Unlock()
	}
}

// textBatches cuts a text body into batches of at most ingestBatchSize
// edges of one kind, in FrameReader.Next's shape: a malformed line ends
// the source after the batch that holds the lines before it.
func textBatches(body io.Reader, kind wal.Kind) func() (wal.Kind, []byte, []stream.Edge, error) {
	src, buf := stream.NewTextReader(body), make([]stream.Edge, ingestBatchSize)
	var pending error
	return func() (wal.Kind, []byte, []stream.Edge, error) {
		if pending != nil {
			return 0, nil, nil, pending
		}
		n, err := stream.ReadBatch(src, buf)
		if n == 0 {
			return 0, nil, nil, err
		}
		pending = err
		return kind, nil, buf[:n], nil
	}
}

// cannotDelete is the 400 message for deletes sent to a mode without a
// delete path.
const cannotDelete = "mode %q cannot delete edges (run the server with -mode=dynamic)"

// handleIngest is POST and DELETE /ingest: the body is a batch source,
// binary frames or text lines (of the store's insert kind, KindDelete on
// DELETE), and every batch runs the loop the package comment describes.
// The deadline is checked only before a batch is logged: once a batch is
// in the WAL it must be applied (log-before-apply). A request that stops
// early — deadline, malformed line or frame, wrong kind, WAL failure —
// reports the batches before it, which stay applied: the sketch has no
// rollback and needs none (ingest is idempotent for registers and
// monotone for counters).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	body := s.limitBody(w, r)
	eng := s.engine()
	isDelete := r.Method == http.MethodDelete
	_, canDelete := linkpred.DeleterOf(eng)
	if isDelete && !canDelete {
		writeError(w, http.StatusBadRequest, cannotDelete, linkpred.ModeOf(eng))
		return
	}
	insertKind := wal.KindEdge
	if linkpred.DirectedEngine(eng) {
		insertKind = wal.KindArc
	}
	var next func() (wal.Kind, []byte, []stream.Edge, error)
	switch {
	case strings.HasPrefix(r.Header.Get("Content-Type"), wal.FrameContentType):
		next = wal.NewFrameReader(r.Body).Next
	case isDelete:
		next = textBatches(r.Body, wal.KindDelete)
	default:
		next = textBatches(r.Body, insertKind)
	}
	ci, hasCtx := linkpred.CtxIngesterOf(eng)
	ingested, deleted, applied, sawDelete := 0, 0, 0, false
	// A batch applies to the engine served when it is applied: under
	// Durability, batches logged after a /restore belong to the restored
	// engine's log tail.
	observe := func(edges []stream.Edge) { s.engine().ObserveEdges(edges) }
	retract := func(edges []stream.Edge) {
		if del, ok := linkpred.DeleterOf(s.engine()); ok {
			applied += del.DeleteEdges(edges)
		}
	}
	status, err := func() (int, error) {
		for {
			if err := r.Context().Err(); err != nil {
				return cancelStatus(err), err
			}
			kind, frame, edges, err := next()
			if err == io.EOF {
				return http.StatusOK, nil
			}
			if err != nil {
				return uploadStatus(err, body), err
			}
			isDel := kind == wal.KindDelete
			switch {
			case isDel && !canDelete:
				return http.StatusBadRequest, fmt.Errorf(cannotDelete, linkpred.ModeOf(eng))
			case !isDel && isDelete:
				return http.StatusBadRequest, fmt.Errorf(
					"DELETE /ingest accepts only delete frames (kind %d), got kind %d", wal.KindDelete, kind)
			case !isDel && kind != insertKind:
				return http.StatusBadRequest, fmt.Errorf("frame kind %d does not match the store's orientation", kind)
			}
			sawDelete = sawDelete || isDel
			apply := observe
			if isDel {
				apply = retract
			}
			switch {
			case s.opts.Durability != nil:
				if err := s.opts.Durability.IngestRecord(kind, frame, edges, apply); err != nil {
					return http.StatusServiceUnavailable, err
				}
			case !isDel && hasCtx:
				if err := ci.ObserveEdgesCtx(r.Context(), edges); err != nil {
					return cancelStatus(err), err
				}
			default:
				apply(edges)
			}
			if isDel {
				deleted += len(edges)
			} else {
				ingested += len(edges)
				s.feedMonitors(edges)
			}
		}
	}()
	s.metrics.edgesIngested.Add(int64(ingested))
	s.metrics.edgesDeleted.Add(int64(applied))
	resp := map[string]any{}
	if !isDelete {
		resp["ingested"] = ingested
	}
	if isDelete || sawDelete {
		resp["deleted"], resp["applied"] = deleted, applied
	}
	switch status {
	case http.StatusGatewayTimeout, StatusClientClosedRequest:
		s.writeCancel(w, err, resp)
		return
	case http.StatusServiceUnavailable:
		// Durability is down: nothing past the reported counts was
		// logged or applied, and the client may retry the tail.
		s.retryAfter(w)
	}
	if err != nil {
		resp["error"] = err.Error()
	}
	writeJSON(w, status, resp)
}

// queryPair parses the u and v query parameters.
func queryPair(r *http.Request) (u, v uint64, err error) {
	u, err = strconv.ParseUint(r.URL.Query().Get("u"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad or missing u: %w", err)
	}
	v, err = strconv.ParseUint(r.URL.Query().Get("v"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad or missing v: %w", err)
	}
	return u, v, nil
}

// score dispatches a measure name through the library's shared
// name→Measure table, so the HTTP surface supports exactly the measures
// the predictor does.
func (s *Server) score(measure string, u, v uint64) (float64, error) {
	m, err := linkpred.ParseMeasure(measure)
	if err != nil {
		return 0, fmt.Errorf("unknown measure %q", measure)
	}
	return s.engine().Score(m, u, v)
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	u, v, err := queryPair(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng := s.engine()
	resp := map[string]any{"u": u, "v": v}
	// Every measure the library defines, keyed by its conventional name
	// with JSON-friendly underscores (jaccard, common_neighbors, ...).
	for _, m := range linkpred.AllMeasures {
		score, err := eng.Score(m, u, v)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp[strings.ReplaceAll(m.String(), "-", "_")] = score
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	u, v, err := queryPair(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	measure := r.URL.Query().Get("measure")
	if measure == "" {
		measure = "adamic-adar"
	}
	score, err := s.score(measure, u, v)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"u": u, "v": v, "measure": measure, "score": score,
	})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err := strconv.ParseUint(q.Get("u"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad or missing u: %v", err)
		return
	}
	measure := q.Get("measure")
	if measure == "" {
		measure = "adamic-adar"
	}
	m, err := linkpred.ParseMeasure(measure)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown measure %q", measure)
		return
	}
	k := 10
	if ks := q.Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, "bad k %q", ks)
			return
		}
	}
	candStr := q.Get("candidates")
	var cands []uint64
	switch {
	case candStr != "":
		toks := strings.Split(candStr, ",")
		cands = make([]uint64, 0, len(toks))
		for _, tok := range toks {
			c, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad candidate %q: %v", tok, err)
				return
			}
			cands = append(cands, c)
		}
	case s.opts.Candidates != nil:
		// No explicit list: ask the ingest-fed tracker for the query
		// vertex's recent neighbors and the stream's frequent vertices.
		s.candMu.Lock()
		cands = s.opts.Candidates.Candidates(u)
		s.candMu.Unlock()
	default:
		writeError(w, http.StatusBadRequest, "missing candidates")
		return
	}
	// The library ranking path: self-candidates dropped, NaN-safe
	// deterministic ordering, ties toward smaller ids. The request
	// context rides into the batched scoring pass so an expired deadline
	// stops the chunk workers mid-query.
	eng := s.engine()
	var ranked []linkpred.Candidate
	if cq, ok := linkpred.CtxQuerierOf(eng); ok {
		ranked, err = cq.TopKCtx(r.Context(), m, u, cands, k)
	} else {
		ranked, err = eng.TopK(m, u, cands, k)
	}
	if err != nil {
		if cancelStatus(err) != 0 {
			s.writeCancel(w, err, nil)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type scored struct {
		V     uint64  `json:"v"`
		Score float64 `json:"score"`
	}
	out := make([]scored, len(ranked))
	for i, c := range ranked {
		out[i] = scored{V: c.V, Score: c.Score}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"u": u, "measure": measure, "candidates": out,
	})
}

// scoreBatchRequest is the POST /scorebatch body: one measure, many
// pairs.
type scoreBatchRequest struct {
	Measure string `json:"measure"`
	Pairs   []struct {
		U uint64 `json:"u"`
		V uint64 `json:"v"`
	} `json:"pairs"`
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	body := s.limitBody(w, r)
	var req scoreBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, uploadStatus(err, body), "bad scorebatch body: %v", err)
		return
	}
	measure := req.Measure
	if measure == "" {
		measure = "adamic-adar"
	}
	m, err := linkpred.ParseMeasure(measure)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown measure %q", measure)
		return
	}
	eng := s.engine()
	start := time.Now()
	// Group the pair list by source vertex so each distinct source costs
	// one batched ScoreBatch call (one source pin + one snapshot read per
	// shard), then scatter the group's scores back to the request order.
	scores := make([]float64, len(req.Pairs))
	groups := make(map[uint64][]int)
	order := make([]uint64, 0, 8)
	for i, p := range req.Pairs {
		if _, ok := groups[p.U]; !ok {
			order = append(order, p.U)
		}
		groups[p.U] = append(groups[p.U], i)
	}
	cq, hasCtx := linkpred.CtxQuerierOf(eng)
	for _, u := range order {
		idxs := groups[u]
		cands := make([]uint64, len(idxs))
		for j, i := range idxs {
			cands[j] = req.Pairs[i].V
		}
		var got []float64
		if hasCtx {
			got, err = cq.ScoreBatchCtx(r.Context(), m, u, cands)
		} else {
			got, err = eng.ScoreBatch(m, u, cands)
		}
		if err != nil {
			if cancelStatus(err) != 0 {
				s.writeCancel(w, err, nil)
				return
			}
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for j, i := range idxs {
			scores[i] = got[j]
		}
	}
	s.metrics.measure(measure).observe(time.Since(start), http.StatusOK)
	writeJSON(w, http.StatusOK, map[string]any{
		"measure": measure,
		"pairs":   len(req.Pairs),
		"scores":  scores,
	})
}

// engineGauges returns the mode-aware predictor gauges served on /stats
// and under "predictor" in /metrics: the Engine-level stats always, plus
// whatever the concrete mode can report (shard count, window geometry,
// directedness).
func engineGauges(eng linkpred.Engine) map[string]any {
	g := map[string]any{
		"mode":         linkpred.ModeOf(eng),
		"directed":     linkpred.DirectedEngine(eng),
		"vertices":     eng.NumVertices(),
		"edges":        eng.NumEdges(),
		"memory_bytes": eng.MemoryBytes(),
		"k":            eng.Config().K,
	}
	inner := eng
	if sy, ok := inner.(*linkpred.Synchronized); ok {
		inner = sy.Unwrap()
	}
	if sh, ok := inner.(interface{ NumShards() int }); ok {
		g["shards"] = sh.NumShards()
	}
	if win, ok := inner.(interface {
		Window() int64
		Rotations() int64
	}); ok {
		g["window"] = win.Window()
		g["rotations"] = win.Rotations()
	}
	if dr, ok := linkpred.DegradedRegistersOf(eng); ok {
		g["degraded_registers"] = dr
	}
	if occ := eng.TierOccupancy(); occ != nil {
		// Per-tier live vertex counts on tiered engines, index-aligned
		// with Config.Tiers — the gauge that shows whether the promotion
		// thresholds match the stream's skew.
		g["tier_occupancy"] = occ
	}
	if rd, ok := inner.(interface{ RecoveryDepth() int }); ok {
		g["recovery_depth"] = rd.RecoveryDepth()
	}
	return g
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, engineGauges(s.engine()))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	gauges := engineGauges(s.engine())
	gauges["resilience"] = s.resilienceGauges()
	snap["predictor"] = gauges
	if s.opts.Monitor != nil {
		s.monMu.Lock()
		rep := s.opts.Monitor.Report(5)
		s.monMu.Unlock()
		snap["stream"] = map[string]any{
			"edges":             rep.Edges,
			"self_loops":        rep.SelfLoops,
			"distinct_edges":    rep.DistinctEdges,
			"distinct_vertices": rep.DistinctVertices,
			"duplicate_rate":    rep.DuplicateRate,
			"mean_degree":       rep.MeanDegree,
		}
	}
	if s.opts.Durability != nil {
		ds := s.opts.Durability.Stats()
		snap["wal"] = map[string]any{
			"appends":             ds.WAL.Appends,
			"records":             ds.WAL.Records,
			"edges":               ds.WAL.Edges,
			"bytes":               ds.WAL.Bytes,
			"fsyncs":              ds.WAL.Fsyncs,
			"fsync_errors":        ds.WAL.FsyncErrs,
			"rotations":           ds.WAL.Rotations,
			"segments":            ds.WAL.Segments,
			"last_seq":            ds.WAL.LastSeq,
			"checkpoints":         ds.Checkpoints,
			"checkpoint_errors":   ds.CheckpointErrors,
			"last_checkpoint_seq": ds.LastCheckpointSeq,
		}
	}
	if s.opts.Recovery != nil {
		rec := s.opts.Recovery
		snap["recovery"] = map[string]any{
			"snapshot_loaded":   rec.SnapshotLoaded,
			"snapshot_seq":      rec.SnapshotSeq,
			"skipped_snapshots": len(rec.SkippedSnapshots),
			"replayed_records":  rec.Replay.Records,
			"replayed_edges":    rec.Replay.Edges,
			"truncated_bytes":   rec.Replay.TruncatedBytes,
			"last_seq":          rec.LastSeq(),
		}
	}
	if r.URL.Query().Get("format") == "expvar" {
		flat := make(map[string]any)
		flatten("", snap, flat)
		writeJSON(w, http.StatusOK, flat)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	eng := s.engine()
	resp := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"vertices":       eng.NumVertices(),
		"edges":          eng.NumEdges(),
	}
	// Structured degradation report: each entry names one unhealthy
	// subsystem with enough detail to act on. The legacy flat "reason"
	// string (first entry's detail) is kept for existing probes.
	var reasons []map[string]any
	// A broken durability pipeline degrades rather than fails the probe:
	// the store still serves reads and accepts (non-durable) queries, so
	// the process must not be restarted into a crash loop — but the
	// operator needs to see why acknowledged writes stopped.
	if s.opts.Durability != nil {
		if ok, reason := s.opts.Durability.Healthy(); !ok {
			entry := map[string]any{"kind": "durability", "detail": reason}
			if hs := s.opts.Durability.WAL().HealState(); hs.Degraded {
				// Self-healing is on the case: report the probe cadence so
				// an operator can tell "recovering" from "stuck".
				entry["kind"] = "wal_degraded"
				entry["heal_attempts"] = hs.Attempts
				entry["degraded_for_seconds"] = time.Since(hs.Since).Seconds()
				if !hs.NextProbe.IsZero() {
					entry["next_probe_ms"] = time.Until(hs.NextProbe).Milliseconds()
				}
			}
			reasons = append(reasons, entry)
		}
	}
	// Dynamic-mode register exhaustion: deletions beyond the recovery
	// buffer depth leave registers pinned at stale minima (scores biased
	// up) until re-insertion refreshes them.
	if dr, ok := linkpred.DegradedRegistersOf(eng); ok && dr > 0 {
		reasons = append(reasons, map[string]any{
			"kind":   "degraded_registers",
			"detail": fmt.Sprintf("%d sketch registers exhausted their recovery buffer", dr),
			"count":  dr,
		})
	}
	if len(reasons) > 0 {
		resp["status"] = "degraded"
		resp["reason"] = reasons[0]["detail"]
		resp["reasons"] = reasons
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="linkpred.ckpt"`)
	if err := s.engine().Save(w); err != nil {
		// Headers are already committed; the client sees a truncated
		// body, which LoadAnyEngine will reject on restore.
		return
	}
	s.metrics.checkpoints.Add(1)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	body := s.limitBody(w, r)
	// The image's magic header selects the store, so a server can be
	// restored from a checkpoint of any mode — single-writer images come
	// back wrapped in Synchronized and keep serving concurrent traffic.
	loaded, err := linkpred.LoadAnyEngine(r.Body)
	if err != nil {
		writeError(w, uploadStatus(err, body), "restore: %v", err)
		return
	}
	swap := func() { s.eng.Store(&engineBox{e: loaded}) }
	if d := s.opts.Durability; d == nil {
		swap()
	} else if linkpred.DirectedEngine(loaded) != linkpred.DirectedEngine(s.engine()) {
		writeError(w, http.StatusBadRequest, "restore: a %s image cannot replace a %s predictor under a write-ahead log, whose record kind is fixed",
			linkpred.ModeOf(loaded), linkpred.ModeOf(s.engine()))
		return
	} else if err := d.Restore(loaded.Save, swap); err != nil {
		s.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "restore: %v", err)
		return
	}
	s.metrics.restores.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"restored_mode":     linkpred.ModeOf(loaded),
		"restored_vertices": loaded.NumVertices(),
		"restored_edges":    loaded.NumEdges(),
	})
}
