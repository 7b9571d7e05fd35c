package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	linkpred "linkpred"
	"linkpred/internal/wal"
)

// config is what one invocation runs.
type config struct {
	sz       sizes
	seconds  int
	work     string // working directory for WAL copies, logs and traces
	lpserver string // the built lpserver binary
	self     string // this binary, re-executed as the -serve child
	traced   bool   // run against the traced -serve child
	plain    bool   // run against the -serve child without decorators
}

// serverArgv is the command line that boots a server on walDir.
func (c config) serverArgv(walDir string) []string {
	switch {
	case c.traced:
		return []string{c.self, "-serve", "-wal-dir", walDir, "-trace-out", filepath.Join(c.work, "trace.json")}
	case c.plain:
		return []string{c.self, "-serve", "-plain", "-wal-dir", walDir}
	}
	return []string{c.lpserver, "-wal-dir", walDir}
}

// runResult is one workload run: its end-to-end metrics, and with
// tracing its per-layer metrics.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	Details   []metric `json:"details,omitempty"`
	Problems  []string `json:"problems,omitempty"`
}

// runOnce generates the inputs for seed, boots the server cfg.sz.Boots
// times on copies of the base snapshot, drives the last boot through
// the workload for cfg.seconds and checks every answer.
func runOnce(cfg config, w workload, seed uint64) (*runResult, error) {
	sz := cfg.sz
	in, err := makeInputs(sz, seed, w.streamEdges(sz, cfg.seconds))
	if err != nil {
		return nil, err
	}
	ld, err := w.prepare(in, sz, cfg.seconds)
	if err != nil {
		return nil, err
	}
	tmpl := filepath.Join(cfg.work, "template")
	defer os.RemoveAll(tmpl)
	if in.baseEdges, err = writeTemplate(tmpl, in.base); err != nil {
		return nil, fmt.Errorf("base snapshot: %w", err)
	}

	var boots, rss []float64
	var srv *child
	walDir := filepath.Join(cfg.work, "wal")
	defer os.RemoveAll(walDir)
	for b := 0; b < sz.Boots; b++ {
		if err := cloneDir(tmpl, walDir); err != nil {
			return nil, err
		}
		s, err := startServer(cfg.serverArgv(walDir), filepath.Join(cfg.work, "server.log"))
		if err != nil {
			return nil, err
		}
		boots = append(boots, s.ready.Seconds())
		if b == sz.Boots-1 {
			srv = s
			break
		}
		hwm, err := s.peakRSSMiB()
		s.kill()
		if err != nil {
			return nil, err
		}
		rss = append(rss, hwm)
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	c := newClient(srv.addr, 1)
	defer c.close()
	if cfg.traced {
		if err := c.get("/bench/mark?at=begin", nil); err != nil {
			return nil, err
		}
	}
	d := time.Duration(cfg.seconds) * time.Second
	ru0 := clientCPU()
	cpu, res, err := runSampled(ld, srv, d)
	if err != nil {
		return nil, err
	}
	clientSecs := clientCPU() - ru0
	var layers layerReport
	if cfg.traced {
		if err := errors.Join(c.get("/bench/mark?at=end", nil), c.get("/bench/layers", &layers)); err != nil {
			return nil, err
		}
	}
	hwm, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rss = append(rss, hwm)
	if err := ld.collect(c); err != nil {
		return nil, err
	}
	stopped = true
	if cfg.traced || cfg.plain {
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("server shutdown: %w", err)
		}
	} else {
		srv.kill()
	}

	ref, err := loadReference(tmpl)
	if err != nil {
		return nil, err
	}
	problems, details, err := ld.verify(ref, in)
	if err != nil {
		return nil, err
	}
	// p99 is reported over the whole phase but not judged: an ingest
	// segment holds about 200 requests, too few for a p99.
	details = append([]metric{{"p99_ms", res.lat.p(0.99), "ms"}}, details...)
	r := &runResult{
		Workload:  w.name,
		Seed:      seed,
		Traced:    cfg.traced,
		Attempted: res.attempted,
		// Each failed answer check is at least one more failed request.
		Failed:   res.failed + len(problems),
		Details:  details,
		Problems: problems,
	}
	for _, e := range res.errs {
		r.Problems = append(r.Problems, "request failed: "+e)
	}
	r.Correct = r.Failed == 0
	seg := segmentMedians(res, d, cpu)
	r.EndToEnd = []metric{
		{"setup_s", median(boots), "s"},
		{"req_per_s", seg.reqPerSec, "1/s"},
		{"p95_ms", seg.p95, "ms"},
		{"server_cpu_ms_per_req", seg.cpuMSPerReq, "ms"},
		{"rss_peak_mb", mean(rss), "MiB"},
	}
	// The median is reported but not judged: with two connections on two
	// shared CPUs it flips between one and two service times as the
	// host's other tenants come and go, and req_per_s already carries it.
	r.Details = append([]metric{{"p50_ms", seg.p50, "ms"}}, r.Details...)
	if cfg.traced {
		r.PerLayer = perLayer(layers, res, clientSecs)
		r.Details = append(r.Details, reconcile(layers)...)
	}
	return r, nil
}

// segments is how many equal slices the measured phase is cut into. The
// judged rates, latencies and CPU costs are medians over the slices, so
// a slow spell of a shared host in one or two of them does not move the
// result.
const segments = 5

// runSampled runs the measured phase of ld against srv for d, reading
// the server's CPU time at the start and at the end of every segment.
func runSampled(ld load, srv *child, d time.Duration) ([]float64, loopResult, error) {
	start := time.Now()
	c0, err := srv.cpuSeconds()
	if err != nil {
		return nil, loopResult{}, err
	}
	done := make(chan loopResult, 1)
	go func() { done <- ld.run(srv.addr, d) }()
	cpu := []float64{c0}
	var errs []error
	for k := 1; k <= segments; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / segments)))
		c, err := srv.cpuSeconds()
		cpu, errs = append(cpu, c), append(errs, err)
	}
	return cpu, <-done, errors.Join(errs...)
}

// phaseStats are the judged rate, latency and CPU metrics of a phase.
type phaseStats struct {
	reqPerSec, p50, p95, cpuMSPerReq float64
}

// segmentMedians assigns each request to the segment it completed in
// (requests still in flight at the end count in the last one) and takes
// medians over the segments. A segment's rate is its completions over
// the time between its first and last completion. cpu holds the
// server's CPU seconds at the segment boundaries.
func segmentMedians(res loopResult, d time.Duration, cpu []float64) phaseStats {
	n := len(cpu) - 1
	lats := make([]latencies, n)
	first, last := make([]time.Duration, n), make([]time.Duration, n)
	for i, t := range res.done {
		k := min(int(int64(t)*int64(n)/int64(d)), n-1)
		if len(lats[k]) == 0 || t < first[k] {
			first[k] = t
		}
		last[k] = max(last[k], t)
		lats[k] = append(lats[k], res.lat[i])
	}
	var rate, p50, p95, cpuMS []float64
	for k, l := range lats {
		r := 0.0
		if span := last[k] - first[k]; len(l) > 1 && span > 0 {
			r = float64(len(l)-1) / span.Seconds()
		}
		rate = append(rate, r)
		if len(l) == 0 {
			continue // a stalled segment: its requests complete, late, in a later one
		}
		p50 = append(p50, l.p(0.50))
		p95 = append(p95, l.p(0.95))
		cpuMS = append(cpuMS, (cpu[k+1]-cpu[k])*1000/float64(len(l)))
	}
	return phaseStats{median(rate), median(p50), median(p95), median(cpuMS)}
}

// loadReference loads the base snapshot into an engine in the client,
// with no ingest pipeline.
func loadReference(dir string) (linkpred.Engine, error) {
	var ref linkpred.Engine
	_, _, err := wal.LoadNewestSnapshot(nil, dir, func(r io.Reader) error {
		var err error
		ref, err = linkpred.LoadAnyEngine(r)
		return err
	})
	return ref, err
}

// clientCPU is this process's user plus system CPU time in seconds.
func clientCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// perLayer derives the per-layer metrics of BENCHMARK.json from the
// traced server's report. Shares are of the summed handler wall time,
// except wal.fsync_busy_pct, which runs outside the handlers and is a
// share of the measured window.
func perLayer(rep layerReport, res loopResult, clientSecs float64) []metric {
	reqs := float64(max(res.attempted, 1))
	var wall, child int64
	for _, ep := range rep.Endpoints {
		wall += ep.WallNS
		for _, ns := range ep.Children {
			child += ns
		}
	}
	spanNS := func(name string) float64 {
		if s := rep.Spans[name]; s != nil {
			return float64(s.TotalNS)
		}
		return 0
	}
	pctOfWall := func(ns float64) float64 { return 100 * ns / float64(max(wall, 1)) }
	return []metric{
		{"client.cpu_us_per_req", clientSecs * 1e6 / reqs, "us"},
		{"server.self_us_per_req", float64(wall-child) / 1e3 / reqs, "us"},
		{"core.us_per_req", (spanNS("core.apply") + spanNS("core.topk") + spanNS("core.scorebatch")) / 1e3 / reqs, "us"},
		{"core.load_ms", float64(rep.LoadNS) / 1e6, "ms"},
		{"core.store_mb", float64(rep.StoreBytes) / (1 << 20), "MiB"},
		{"monitor.busy_pct", pctOfWall(spanNS("monitor.busy")), "%"},
		{"monitor.wait_pct", pctOfWall(spanNS("monitor.wait")), "%"},
		{"wal.recover_ms", float64(rep.RecoverNS) / 1e6, "ms"},
		{"wal.write_pct", pctOfWall(spanNS("wal.write")), "%"},
		{"wal.fsync_busy_pct", 100 * spanNS("wal.fsync") / float64(max(rep.WindowNS, 1)), "%"},
		{"runtime.gc_cpu_us_per_req", rep.Runtime.GCCPU * 1e6 / reqs, "us"},
		{"runtime.alloc_kb_per_req", float64(rep.Runtime.AllocBytes) / 1024 / reqs, "KiB"},
	}
}

// reconcile reports, per endpoint, the handler wall time and the share
// of it the layer spans account for (server self time is the rest), and
// the layer metrics that only exist where that layer did work.
func reconcile(rep layerReport) []metric {
	var out []metric
	for _, name := range sortedKeys(rep.Endpoints) {
		ep := rep.Endpoints[name]
		var child int64
		for _, ns := range ep.Children {
			child += ns
		}
		out = append(out,
			metric{"trace." + name + ".requests", float64(ep.Requests), "count"},
			metric{"trace." + name + ".non2xx", float64(ep.Non2xx), "count"},
			metric{"trace." + name + ".wall_us_per_req", float64(ep.WallNS) / 1e3 / float64(max(ep.Requests, 1)), "us"},
			metric{"trace." + name + ".layers_pct", 100 * float64(child) / float64(max(ep.WallNS, 1)), "%"})
		for _, cn := range sortedKeys(ep.Children) {
			out = append(out, metric{"trace." + name + "." + cn + "_us_per_req", float64(ep.Children[cn]) / 1e3 / float64(max(ep.Requests, 1)), "us"})
		}
	}
	for _, name := range sortedKeys(rep.Spans) {
		s := rep.Spans[name]
		out = append(out, metric{"span." + name + ".count", float64(s.Count), "count"},
			metric{"span." + name + ".p99_ms", s.P99NS / 1e6, "ms"})
		if s.Bytes > 0 {
			out = append(out, metric{"span." + name + ".bytes", float64(s.Bytes), "B"})
		}
	}
	return append(out,
		metric{"core.pipeline.stalls", float64(rep.Pipeline.Stalls), "count"},
		metric{"core.pipeline.owner_parks", float64(rep.Pipeline.OwnerParks), "count"})
}

// describe is a one-line account of a failed run.
func (r *runResult) describe() string {
	return fmt.Sprintf("%s seed %d: %d of %d requests failed; %s", r.Workload, r.Seed, r.Failed, r.Attempted, strings.Join(r.Problems, "; "))
}
