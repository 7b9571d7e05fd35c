// Command lpstream runs the sketch-based streaming link predictor over an
// edge-stream file and answers link-prediction queries.
//
// Usage:
//
//	lpstream -in stream.txt -k 128 -pairs "3:17,42:99"
//	lpstream -in stream.bin -binary -k 256 -top 42 -topk 10
//	lpstream -in stream.txt -parallel 4                # sharded parallel ingest
//	lpstream -in stream.bin -binary -post http://localhost:8080  # binary-frame remote ingest
//	cat queries.txt | lpstream -in stream.txt          # "u v" per line
//
// Ingest reads the stream in batches (-batch edges at a time) and folds
// each batch through the library's batched ingest path; with -parallel
// N > 1 the batches are fanned out to N writer goroutines over a
// sharded predictor. Estimates are identical in every mode. After
// ingesting it prints a summary with the ingest rate, then the
// estimated Jaccard / common-neighbor / Adamic–Adar values for each
// query pair given via -pairs, the top-k candidates for the -top vertex
// (candidates are the vertices seen in the stream), and finally any
// "u v" query pairs read from stdin if it is not a terminal.
//
// With -wal-dir the ingest is crash-safe and resumable: every batch is
// appended to a checksummed write-ahead log before it is applied
// (fsync policy via -wal-fsync), and a snapshot is written when ingest
// completes. Rerun after a crash with the same flags and the same input
// file: the durable prefix is recovered from snapshot + log replay and
// skipped in the input, so a long ingest continues where the crash cut
// it off instead of starting over.
//
// With -deletes the run uses the deletion-capable dynamic engine: after
// the -in stream is ingested, every edge in the -deletes file is
// retracted from the sketches. Under -wal-dir the retractions are
// logged as KindDelete records (and replayed as deletions on resume);
// with -post they are shipped to the server's DELETE /ingest endpoint
// as binary delete frames.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	linkpred "linkpred"
	"linkpred/internal/monitor"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

func main() {
	// Stdin queries only when something is piped in.
	var queries io.Reader
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		queries = os.Stdin
	}
	if err := run(os.Args[1:], os.Stdout, queries); err != nil {
		fmt.Fprintln(os.Stderr, "lpstream:", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given flags, output writer, and
// optional "u v"-per-line query reader (nil = no piped queries).
func run(args []string, stdout io.Writer, queries io.Reader) error {
	fs := flag.NewFlagSet("lpstream", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "input stream file (required)")
		binary   = fs.Bool("binary", false, "input is in the binary format")
		k        = fs.Int("k", 128, "sketch registers per vertex")
		tiers    = fs.String("tiers", "", "tiered register budgets as comma-separated K:PromoteAt rungs (e.g. 16:0,64:8,128:64; last K must equal -k; empty = uniform)")
		expV     = fs.Int("expected-vertices", 0, "pre-size vertex maps and register arenas for this many vertices (0 = grow on demand)")
		seed     = fs.Uint64("seed", 42, "hash seed")
		distinct = fs.Bool("distinct-degrees", false, "use KMV distinct-degree estimation (for streams with duplicate edges)")
		pairs    = fs.String("pairs", "", "comma-separated query pairs, e.g. \"3:17,42:99\"")
		top      = fs.Uint64("top", 0, "vertex to rank candidates for (0 = off)")
		topk     = fs.Int("topk", 10, "number of candidates to report for -top")
		measure  = fs.String("measure", "adamic-adar", "ranking measure: jaccard | common-neighbors | adamic-adar | resource-allocation | preferential-attachment | cosine")
		directed = fs.Bool("directed", false, "treat edges as directed arcs (u -> v); queries score candidate arcs")
		profile  = fs.Bool("profile", false, "also print a constant-space stream profile (distinct edges, duplicate rate, heavy hitters)")
		parallel = fs.Int("parallel", 1, "ingest writer goroutines; >1 switches to the sharded concurrent predictor")
		batch    = fs.Int("batch", 4096, "edges per ingest batch")
		deletes  = fs.String("deletes", "", "edge file to retract after ingest (uses the dynamic engine; same text/-binary format as -in)")
		recDepth = fs.Int("recover-depth", 0, "with -deletes: smallest hashes kept per register for deletion recovery (0 = default)")
		walDir   = fs.String("wal-dir", "", "write-ahead log directory: log batches before applying, snapshot on completion, and resume a crashed ingest of the same input")
		walFsync = fs.String("wal-fsync", "interval", "WAL fsync policy: always | interval | never")
		post     = fs.String("post", "", "POST the stream to this lpserver base URL as binary frames (application/x-lp-edges) instead of ingesting locally")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", *batch)
	}

	// Pick the engine mode: single-writer predictors at -parallel 1, the
	// sharded concurrent ones above that (shards = 4× the writer count so
	// that per-batch shard groups spread across writers). Every estimate
	// is identical across the four modes; only locking differs. The
	// constructor registry (linkpred.NewEngine) is the same one lpserver
	// serves from.
	tierLadder, err := linkpred.ParseTiers(*tiers)
	if err != nil {
		return err
	}
	cfg := linkpred.Config{K: *k, Seed: *seed, DistinctDegrees: *distinct, Tiers: tierLadder}
	mode := linkpred.ModeSingle
	switch {
	case *deletes != "" && *directed:
		return fmt.Errorf("-deletes needs the dynamic engine, which is undirected; drop -directed")
	case *deletes != "" && *parallel > 1:
		return fmt.Errorf("-deletes needs the dynamic engine, which is single-writer; drop -parallel")
	case *deletes != "":
		mode = linkpred.ModeDynamic
	case *directed && *parallel > 1:
		mode = linkpred.ModeConcurrentDirected
	case *directed:
		mode = linkpred.ModeDirected
	case *parallel > 1:
		mode = linkpred.ModeConcurrent
	}
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode: mode, Config: cfg, Shards: 4 * *parallel, RecoverDepth: *recDepth,
		ExpectedVertices: *expV,
	})
	if err != nil {
		return err
	}
	// load replaces the flag-built empty engine with a -wal-dir
	// snapshot's (the image's magic selects the store); the snapshot must
	// match the flags, or the resumed ingest would diverge from the
	// durable prefix.
	observe := func(batch []linkpred.Edge) { eng.ObserveEdges(batch) }
	load := func(r io.Reader) error {
		loaded, lerr := linkpred.LoadAnyEngine(r)
		if lerr != nil {
			return lerr
		}
		if got := loaded.Config(); got.K != cfg.K || got.Seed != cfg.Seed || got.DistinctDegrees != cfg.DistinctDegrees || got.Tiers != cfg.Tiers {
			return fmt.Errorf("snapshot was built with -k %d -seed %d -distinct-degrees=%v and a different -tiers ladder; rerun with the same flags",
				got.K, got.Seed, got.DistinctDegrees)
		}
		if got := linkpred.ModeOf(loaded); got != mode {
			return fmt.Errorf("snapshot was built in %s mode, this run is %s; rerun with the matching -directed/-parallel flags", got, mode)
		}
		eng = loaded
		return nil
	}
	var mon *monitor.StreamMonitor
	if *profile {
		if mon, err = monitor.New(monitor.Config{Seed: *seed}); err != nil {
			return err
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		return fmt.Errorf("open stream: %w", err)
	}
	defer f.Close()
	var src stream.Source
	if *binary {
		src = stream.NewBinaryReader(f)
	} else {
		src = stream.NewTextReader(f)
	}

	// Remote ingest: frame the stream in the binary /ingest wire format
	// and ship it to a running lpserver in one request. Queries belong to
	// the server in this mode, so the local flags that need a predictor
	// (-pairs, -top, -wal-dir) don't apply.
	if *post != "" {
		if err := postStream(stdout, *post, src, *batch, *directed); err != nil {
			return err
		}
		if *deletes == "" {
			return nil
		}
		df, derr := os.Open(*deletes)
		if derr != nil {
			return fmt.Errorf("open deletes: %w", derr)
		}
		defer df.Close()
		var dsrc stream.Source
		if *binary {
			dsrc = stream.NewBinaryReader(df)
		} else {
			dsrc = stream.NewTextReader(df)
		}
		return postDeletes(stdout, *post, dsrc, *batch)
	}

	// Track the vertex universe for -top candidate generation.
	var vertices []uint64
	seen := make(map[uint64]struct{})
	note := func(u uint64) {
		if _, ok := seen[u]; !ok {
			seen[u] = struct{}{}
			vertices = append(vertices, u)
		}
	}

	// Crash-safe mode: recover whatever the previous run made durable
	// (snapshot + log replay), then skip that prefix of the input — the
	// sequence number counts input edges, so the resume point is exact.
	var durable *wal.Durable
	var skip uint64
	walKind := wal.KindEdge
	if *directed {
		walKind = wal.KindArc
	}
	if *walDir != "" {
		policy, perr := wal.ParseFsyncPolicy(*walFsync)
		if perr != nil {
			return perr
		}
		// Batched replay: consecutive same-kind records are coalesced into
		// large batches, each applied with one call.
		res, rerr := wal.RecoverBatched(nil, *walDir, load, func(kind wal.Kind, b []stream.Edge) error {
			if kind == wal.KindDelete {
				del, ok := linkpred.DeleterOf(eng)
				if !ok {
					return fmt.Errorf("log holds delete records; rerun with the -deletes flag that wrote it")
				}
				del.DeleteEdges(b)
				return nil
			}
			if kind != walKind {
				return fmt.Errorf("log holds %s records; rerun with the matching -directed setting",
					map[wal.Kind]string{wal.KindEdge: "undirected edge", wal.KindArc: "directed arc"}[kind])
			}
			observe(b)
			return nil
		}, wal.BatchedReplayOptions{})
		if rerr != nil {
			return fmt.Errorf("wal recovery: %w", rerr)
		}
		skip = res.LastSeq()
		if skip > 0 {
			fmt.Fprintf(stdout, "resuming from %s: %d edges durable (snapshot seq %d, %d replayed), skipping them in the input\n",
				*walDir, skip, res.SnapshotSeq, res.Replay.Edges)
		}
		w, werr := wal.Open(*walDir, wal.Options{Fsync: policy, NextSeq: skip + 1})
		if werr != nil {
			return fmt.Errorf("open wal: %w", werr)
		}
		durable = wal.NewDurable(w, *walDir, walKind, func(wr io.Writer) error { return eng.Save(wr) })
	}

	// Batched ingest pipeline: the reader fills -batch-edge buffers and
	// handles the single-threaded bookkeeping (vertex universe, stream
	// profile); the sketch work runs through observe — inline at
	// -parallel 1, fanned out to writer goroutines otherwise. Recycled
	// buffers flow reader → workers → reader, so ingest allocates
	// nothing per batch at steady state.
	edges := 0
	start := time.Now()
	var (
		work, free chan []stream.Edge
		wg         sync.WaitGroup
	)
	if *parallel > 1 {
		work = make(chan []stream.Edge, *parallel)
		free = make(chan []stream.Edge, 2**parallel)
		for i := 0; i < cap(free); i++ {
			free <- make([]stream.Edge, *batch)
		}
		for w := 0; w < *parallel; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := range work {
					observe(b)
					free <- b[:cap(b)]
				}
			}()
		}
	}
	rbuf := make([]stream.Edge, *batch)
	for {
		if *parallel > 1 {
			rbuf = <-free
		}
		n, rerr := stream.ReadBatch(src, rbuf)
		// Every input edge counts toward the vertex universe and the
		// profile, including the prefix the previous run made durable:
		// recovery already folded that prefix into the sketches, so it
		// is neither re-ingested nor re-logged.
		for _, e := range rbuf[:n] {
			if mon != nil {
				mon.ProcessEdge(e)
			}
			note(e.U)
			note(e.V)
		}
		be := rbuf[:n]
		if skip > 0 {
			d := int(min(uint64(n), skip))
			skip -= uint64(d)
			// Keep the rest at the buffer's start so it recycles whole.
			be = be[:copy(be, be[d:])]
		}
		if len(be) > 0 {
			if durable != nil {
				// Log before apply: an acknowledged batch is exactly one
				// that recovery can reproduce.
				if _, aerr := durable.WAL().Append(walKind, be); aerr != nil {
					if *parallel > 1 {
						close(work)
						wg.Wait()
					}
					return fmt.Errorf("wal append: %w", aerr)
				}
			}
			edges += len(be)
			if *parallel > 1 {
				work <- be
			} else {
				observe(be)
			}
		} else if *parallel > 1 {
			free <- rbuf
		}
		if rerr != nil || n < *batch {
			if *parallel > 1 {
				close(work)
				wg.Wait()
			}
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				return rerr
			}
			break
		}
	}
	elapsed := time.Since(start)
	rate := float64(edges) / elapsed.Seconds()
	if *directed {
		fmt.Fprintf(stdout, "ingested %d arcs, %d vertices; sketch memory %.1f MiB (k=%d, directed)\n",
			edges, eng.NumVertices(), float64(eng.MemoryBytes())/(1<<20), *k)
	} else {
		fmt.Fprintf(stdout, "ingested %d edges, %d vertices; sketch memory %.1f MiB (k=%d)\n",
			edges, eng.NumVertices(), float64(eng.MemoryBytes())/(1<<20), *k)
	}
	fmt.Fprintf(stdout, "ingest: %.3fs, %.0f edges/sec (parallel=%d, batch=%d)\n",
		elapsed.Seconds(), rate, *parallel, *batch)

	// Retraction phase: feed the -deletes file through the dynamic
	// store's delete path. Any skip left over from recovery is the
	// durable delete prefix (the run crashed mid-retraction); it has
	// already been replayed and is skipped here the same way the input
	// prefix was.
	if *deletes != "" {
		del, ok := linkpred.DeleterOf(eng)
		if !ok {
			return fmt.Errorf("engine mode %s cannot delete edges", linkpred.ModeOf(eng))
		}
		df, derr := os.Open(*deletes)
		if derr != nil {
			return fmt.Errorf("open deletes: %w", derr)
		}
		var dsrc stream.Source
		if *binary {
			dsrc = stream.NewBinaryReader(df)
		} else {
			dsrc = stream.NewTextReader(df)
		}
		requested, applied := 0, 0
		dbuf := make([]stream.Edge, *batch)
		for {
			n, rerr := stream.ReadBatch(dsrc, dbuf)
			if n > 0 {
				be := dbuf[:n]
				if skip > 0 {
					d := len(be)
					if uint64(d) > skip {
						d = int(skip)
					}
					skip -= uint64(d)
					be = be[d:]
				}
				if len(be) > 0 {
					if durable != nil {
						// Log before apply, as KindDelete records in the same
						// sequence space as the inserts.
						if _, aerr := durable.WAL().Append(wal.KindDelete, be); aerr != nil {
							df.Close()
							return fmt.Errorf("wal append (delete): %w", aerr)
						}
					}
					requested += len(be)
					applied += del.DeleteEdges(be)
				}
			}
			if rerr != nil || n < *batch {
				df.Close()
				if rerr != nil && !errors.Is(rerr, io.EOF) {
					return rerr
				}
				break
			}
		}
		fmt.Fprintf(stdout, "retracted %d edges (%d applied, %d unknown or already gone); store now %d edges, %d vertices\n",
			requested, applied, requested-applied, eng.NumEdges(), eng.NumVertices())
		if dg, ok := linkpred.DegradedRegistersOf(eng); ok && dg > 0 {
			fmt.Fprintf(stdout, "deletion recovery buffers underflowed on %d registers; estimates touching them are conservative until those vertices re-accumulate\n", dg)
		}
	}
	if durable != nil {
		lastSeq := durable.WAL().LastSeq()
		if cerr := durable.Close(); cerr != nil {
			return fmt.Errorf("wal checkpoint: %w", cerr)
		}
		fmt.Fprintf(stdout, "wal: snapshot at seq %d written to %s\n", lastSeq, *walDir)
	}
	if mon != nil {
		r := mon.Report(5)
		fmt.Fprintf(stdout, "stream profile: %s (profile memory %.2f MiB)\n", r, float64(mon.MemoryBytes())/(1<<20))
		for i, h := range r.TopVertices {
			fmt.Fprintf(stdout, "  top vertex %d: id %d, ~%d arrivals (±%d)\n", i+1, h.Key, h.Count, h.Err)
		}
	}

	for _, spec := range splitNonEmpty(*pairs, ",") {
		uv := strings.SplitN(spec, ":", 2)
		if len(uv) != 2 {
			return fmt.Errorf("bad pair %q (want u:v)", spec)
		}
		u, err1 := strconv.ParseUint(strings.TrimSpace(uv[0]), 10, 64)
		v, err2 := strconv.ParseUint(strings.TrimSpace(uv[1]), 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad pair %q: %v %v", spec, err1, err2)
		}
		printPair(stdout, eng, *directed, u, v)
	}

	if *top != 0 {
		m, err := parseMeasure(*measure)
		if err != nil {
			return err
		}
		cands, err := eng.TopK(m, *top, vertices, *topk)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "top %d candidates for vertex %d by %s:\n", len(cands), *top, m)
		for i, c := range cands {
			fmt.Fprintf(stdout, "  %2d. vertex %-12d score %.4f\n", i+1, c.V, c.Score)
		}
	}

	// Piped queries, one "u v" pair per line.
	if queries != nil {
		sc := bufio.NewScanner(queries)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) != 2 {
				continue
			}
			u, err1 := strconv.ParseUint(fields[0], 10, 64)
			v, err2 := strconv.ParseUint(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				continue
			}
			printPair(stdout, eng, *directed, u, v)
		}
		if err := sc.Err(); err != nil && err != io.EOF {
			return fmt.Errorf("read queries: %w", err)
		}
	}
	return nil
}

// Remote-ingest retry policy. A chunk (postChunkBatches frames) is the
// unit of upload and retry: small enough to buffer and resend, large
// enough that the per-request overhead stays negligible.
const (
	postChunkBatches = 64 // frames per request
	postMaxAttempts  = 8  // tries per chunk before giving up
	postRetryBase    = 200 * time.Millisecond
	postRetryMax     = 5 * time.Second
)

// postRetryable reports whether a response status is worth retrying:
// 503 (durability degraded or WAL healing — the server said "later",
// possibly with a durable-prefix count) and 429 (admission shed).
func postRetryable(status int) bool {
	return status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests
}

// postBackoff returns how long to sleep before retry number attempt
// (0-based): the server's Retry-After hint when it sent one, otherwise
// jittered exponential backoff.
func postBackoff(resp *http.Response, attempt int) time.Duration {
	if resp != nil {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				return time.Duration(secs) * time.Second
			}
		}
	}
	d := postRetryBase
	for i := 0; i < attempt && d < postRetryMax; i++ {
		d *= 2
	}
	if d > postRetryMax {
		d = postRetryMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// appliedPrefix extracts the server's progress counter (ingested /
// deleted) from a 503 body: the number of this request's edges that
// made it into the log before durability failed. Those must not be
// resent — the log has them, a resend would double-count.
func appliedPrefix(body []byte, key string) int {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return 0
	}
	if v, ok := m[key].(float64); ok && v > 0 {
		return int(v)
	}
	return 0
}

// postChunk ships one chunk of edges as batch-sized binary frames,
// retrying transient failures with backoff. On a 503 the durable
// prefix reported by the server is skipped on the resend; on a
// connection error the whole chunk is resent (the WAL-backed server
// replays nothing it did not acknowledge, and sketch registers are
// idempotent under re-ingest, so the retry is safe at-least-once
// delivery).
func postChunk(baseURL, method string, kind wal.Kind, chunk []stream.Edge, batch int, progressKey string) ([]byte, error) {
	url := strings.TrimRight(baseURL, "/") + "/ingest"
	skip := 0
	var lastErr error
	var lastResp *http.Response // most recent retryable response, for its Retry-After hint
	for attempt := 0; attempt < postMaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(postBackoff(lastResp, attempt-1))
		}
		// (Re-)frame the unacknowledged tail of the chunk.
		var payload []byte
		var frame []byte
		for off := skip; off < len(chunk); off += batch {
			end := off + batch
			if end > len(chunk) {
				end = len(chunk)
			}
			var ferr error
			if frame, ferr = wal.EncodeFrame(frame[:0], kind, chunk[off:end]); ferr != nil {
				return nil, ferr
			}
			payload = append(payload, frame...)
		}
		req, err := http.NewRequest(method, url, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", wal.FrameContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			// Connection-level failure (reset, refused, timeout): transient
			// by assumption; resend the whole unacknowledged tail.
			lastErr, lastResp = fmt.Errorf("post %s: %w", url, err), nil
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			lastErr, lastResp = fmt.Errorf("read response: %w", rerr), nil
			continue
		}
		if resp.StatusCode == http.StatusOK {
			return body, nil
		}
		if !postRetryable(resp.StatusCode) {
			return body, fmt.Errorf("server rejected the upload (status %d): %s",
				resp.StatusCode, strings.TrimSpace(string(body)))
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			skip += appliedPrefix(body, progressKey)
			if skip >= len(chunk) {
				// Everything was durably logged before the failure surfaced.
				return body, nil
			}
		}
		lastErr = fmt.Errorf("server unavailable (status %d): %s", resp.StatusCode, strings.TrimSpace(string(body)))
		lastResp = resp
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", postMaxAttempts, lastErr)
}

// postFrames drains src through postChunk: chunks of postChunkBatches
// batch-sized frames, each retried independently, so one transient
// blip costs a chunk resend instead of the whole stream.
func postFrames(baseURL, method string, kind wal.Kind, src stream.Source, batch int, progressKey string) (edges int, lastBody []byte, err error) {
	buf := make([]stream.Edge, batch)
	chunk := make([]stream.Edge, 0, batch*postChunkBatches)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		body, perr := postChunk(baseURL, method, kind, chunk, batch, progressKey)
		if perr != nil {
			return perr
		}
		lastBody = body
		edges += len(chunk)
		chunk = chunk[:0]
		return nil
	}
	for {
		n, rerr := stream.ReadBatch(src, buf)
		if n > 0 {
			chunk = append(chunk, buf[:n]...)
			if len(chunk) >= batch*postChunkBatches {
				if err := flush(); err != nil {
					return edges, lastBody, err
				}
			}
		}
		if rerr != nil {
			if !errors.Is(rerr, io.EOF) {
				return edges, lastBody, rerr
			}
			break
		}
		if n < batch {
			break
		}
	}
	return edges, lastBody, flush()
}

// postStream ships the source to baseURL/ingest as binary
// crc/len-framed edge records (Content-Type application/x-lp-edges),
// one frame per -batch edges, chunked into independent requests with
// transient-failure retry (jittered backoff, Retry-After honored, 503
// durable prefixes not resent). The server validates every frame's CRC
// and — when running with -wal-dir — appends the frame bytes to its
// log without re-encoding them.
func postStream(stdout io.Writer, baseURL string, src stream.Source, batch int, directed bool) error {
	kind := wal.KindEdge
	if directed {
		kind = wal.KindArc
	}
	start := time.Now()
	edges, body, err := postFrames(baseURL, http.MethodPost, kind, src, batch, "ingested")
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "posted %d edges in %d-edge frames to %s: %.3fs, %.0f edges/sec\n",
		edges, batch, baseURL, elapsed.Seconds(), float64(edges)/elapsed.Seconds())
	fmt.Fprintf(stdout, "server response: %s\n", strings.TrimSpace(string(body)))
	return nil
}

// postDeletes ships a retraction stream to baseURL/ingest as binary
// KindDelete frames on the DELETE method, with the same chunked retry
// as postStream. The server applies each frame through its engine's
// delete path (400 unless it runs -mode=dynamic).
func postDeletes(stdout io.Writer, baseURL string, src stream.Source, batch int) error {
	start := time.Now()
	edges, body, err := postFrames(baseURL, http.MethodDelete, wal.KindDelete, src, batch, "deleted")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "posted %d retractions in %d-edge delete frames to %s in %.3fs\n",
		edges, batch, baseURL, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "server response: %s\n", strings.TrimSpace(string(body)))
	return nil
}

// printPair prints the standard pair report; directed pairs are
// rendered as the candidate arc u -> v.
func printPair(w io.Writer, e linkpred.Engine, directed bool, u, v uint64) {
	j, _ := e.Score(linkpred.Jaccard, u, v)
	cn, _ := e.Score(linkpred.CommonNeighbors, u, v)
	aa, _ := e.Score(linkpred.AdamicAdar, u, v)
	arrow := ","
	if directed {
		arrow = " ->"
	}
	fmt.Fprintf(w, "(%d%s %d): jaccard=%.4f common-neighbors=%.2f adamic-adar=%.3f\n",
		u, arrow, v, j, cn, aa)
}

// parseMeasure delegates to the library's shared name→Measure table, so
// the CLI accepts exactly the measures the predictors dispatch.
func parseMeasure(s string) (linkpred.Measure, error) {
	return linkpred.ParseMeasure(s)
}

func splitNonEmpty(s, sep string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, sep)
}
