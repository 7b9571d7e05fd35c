package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	linkpred "linkpred"
	"linkpred/internal/exact"
	"linkpred/internal/graph"
	"linkpred/internal/stream"
)

// workload is one traffic mix. The README says why each exists.
type workload struct {
	name string
	// streamEdges is how many R-MAT edges after the base graph it sends
	// in a run of the given length.
	streamEdges func(sz sizes, seconds int) int
	// prepare builds every request from the inputs, untimed.
	prepare func(in *inputs, sz sizes, seconds int) (load, error)
}

// load is a prepared workload instance.
type load interface {
	// run is the measured phase against the server at addr.
	run(addr string, d time.Duration) loopResult
	// collect reads what the checks need from the live server after the
	// measured phase.
	collect(c *client) error
	// verify checks the answers against ref, an engine loaded from the
	// base snapshot in the client, once the server has stopped. It
	// returns the failed checks and extra lines for the report.
	verify(ref linkpred.Engine, in *inputs) (problems []string, details []metric, err error)
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = []workload{
	{
		name: "ingest",
		streamEdges: func(sz sizes, seconds int) int {
			return roundUp(sz.IngestEPS*seconds, sz.IngestFrame)
		},
		prepare: func(in *inputs, sz sizes, _ int) (load, error) {
			wc, err := newWriteCheck(in.stream, sz.IngestFrame)
			return &ingestLoad{conns: sz.Conns, writeCheck: wc}, err
		},
	},
	{
		name:        "topk_aa",
		streamEdges: func(sizes, int) int { return 0 },
		prepare: func(in *inputs, sz sizes, _ int) (load, error) {
			return &topkLoad{sz: sz, pool: in.topkPool(sz), book: newAnswerBook(func(p int) bool {
				return p%8 == 0 || p < sz.MAETopK
			})}, nil
		},
	},
	{
		name:        "scorebatch_jaccard",
		streamEdges: func(sizes, int) int { return 0 },
		prepare: func(in *inputs, sz sizes, _ int) (load, error) {
			pool, err := batchPool(sz.Pool, "jaccard", sz.BatchSources, sz.BatchCands, in.hotDraw, in.hotDraw)
			return &batchLoad{sz: sz, pool: pool, book: newAnswerBook(func(p int) bool {
				return p%8 == 0 || p < sz.MAEBatch
			})}, err
		},
	},
	{
		name: "mixed",
		streamEdges: func(sz sizes, seconds int) int {
			return mixedFrames(sz, seconds) * sz.MixedFrame
		},
		prepare: func(in *inputs, sz sizes, seconds int) (load, error) {
			wc, err := newWriteCheck(in.stream[:mixedFrames(sz, seconds)*sz.MixedFrame], sz.MixedFrame)
			if err != nil {
				return nil, err
			}
			queries, err := batchPool(sz.Pool, "adamic-adar", sz.MixedSources, sz.MixedCands, in.degreeBiased, in.uniform)
			return &mixedLoad{sz: sz, writeCheck: wc, queries: queries}, err
		},
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// mixedFrames is the number of ingest frames the mixed schedule sends.
func mixedFrames(sz sizes, seconds int) int {
	return int(math.Ceil(sz.MixedIngestRate * float64(seconds)))
}

// writeCheck verifies a workload that ingests: the server's checkpoint
// must be byte-identical to the Save of a reference engine fed the base
// snapshot plus exactly the acknowledged sends, in send order, through
// ObserveEdges with the pipeline off, and /stats must count the base
// edges plus the acknowledged ones. Send i carries frame i mod the frame
// count, so a stream longer than the generated edges repeats them.
type writeCheck struct {
	frames    [][]byte
	edges     [][]stream.Edge // the edges of each frame
	ckptSum   [sha256.Size]byte
	statEdges int64

	mu    sync.Mutex
	acked map[int]bool // by send number
}

func newWriteCheck(edges []stream.Edge, size int) (*writeCheck, error) {
	fs, err := frames(edges, size)
	if err != nil {
		return nil, err
	}
	wc := &writeCheck{frames: fs, acked: make(map[int]bool)}
	for i := 0; i < len(edges); i += size {
		wc.edges = append(wc.edges, edges[i:min(i+size, len(edges))])
	}
	return wc, nil
}

// send posts send i and records its acknowledgement.
func (w *writeCheck) send(c *client, i int) error {
	f := i % len(w.frames)
	if err := c.ingest(w.frames[f], len(w.edges[f])); err != nil {
		return err
	}
	w.mu.Lock()
	w.acked[i] = true
	w.mu.Unlock()
	return nil
}

func (w *writeCheck) collect(c *client) error {
	resp, err := c.hc.Get(c.base + "/checkpoint")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /checkpoint: status %d", resp.StatusCode)
	}
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return fmt.Errorf("GET /checkpoint: %w", err)
	}
	h.Sum(w.ckptSum[:0])
	var st struct {
		Edges int64 `json:"edges"`
	}
	if err := c.get("/stats", &st); err != nil {
		return err
	}
	w.statEdges = st.Edges
	return nil
}

func (w *writeCheck) verify(ref linkpred.Engine, in *inputs) ([]string, []metric, error) {
	var acked int64
	for _, i := range sortedKeys(w.acked) {
		edges := w.edges[i%len(w.frames)]
		ref.ObserveEdges(toEdges(edges))
		acked += int64(len(edges))
	}
	h := sha256.New()
	if err := ref.Save(h); err != nil {
		return nil, nil, err
	}
	var problems []string
	if want := h.Sum(nil); string(want) != string(w.ckptSum[:]) {
		problems = append(problems, fmt.Sprintf("checkpoint sha256 %x, reference %x", w.ckptSum, want))
	}
	if want := in.baseEdges + acked; w.statEdges != want {
		problems = append(problems, fmt.Sprintf("/stats counts %d edges, want base %d + acknowledged %d", w.statEdges, in.baseEdges, acked))
	}
	return problems, []metric{{"acked_edges", float64(acked), "count"}}, nil
}

// ingestLoad is the ingest workload: a closed loop of binary frames.
type ingestLoad struct {
	conns int
	*writeCheck
}

func (l *ingestLoad) run(addr string, d time.Duration) loopResult {
	c := newClient(addr, l.conns)
	defer c.close()
	return closedLoop(l.conns, d, func(i int) error { return l.send(c, i) })
}

// topkLoad is the topk_aa workload: a closed loop over the request pool.
type topkLoad struct {
	sz   sizes
	pool []topkReq
	book *answerBook
}

func (l *topkLoad) run(addr string, d time.Duration) loopResult {
	c := newClient(addr, l.sz.Conns)
	defer c.close()
	return closedLoop(l.sz.Conns, d, func(i int) error {
		p := i % len(l.pool)
		a, err := c.topk(&l.pool[p], l.sz.TopKK)
		if err != nil {
			return err
		}
		return l.book.note(p, a)
	})
}

func (l *topkLoad) collect(*client) error { return nil }

func (l *topkLoad) verify(ref linkpred.Engine, in *inputs) ([]string, []metric, error) {
	var problems []string
	checked := 0
	for _, p := range sortedKeys(l.book.first) {
		if p%8 != 0 {
			continue
		}
		r := &l.pool[p]
		ranked, err := ref.TopK(linkpred.AdamicAdar, r.u, r.cands, l.sz.TopKK)
		if err != nil {
			return nil, nil, err
		}
		want := answer{ids: make([]uint64, len(ranked)), scores: make([]float64, len(ranked))}
		for i, c := range ranked {
			want.ids[i], want.scores[i] = c.V, c.Score
		}
		if err := sameAnswer(want, l.book.first[p]); err != nil {
			problems = append(problems, fmt.Sprintf("topk pool request %d: %v", p, err))
		}
		checked++
	}
	g := exactGraph(in.base)
	var errSum float64
	var n int
	for p := 0; p < l.sz.MAETopK; p++ {
		a, ok := l.book.first[p]
		if !ok {
			continue
		}
		for i, v := range a.ids {
			errSum += math.Abs(a.scores[i] - exact.AdamicAdar(g, l.pool[p].u, v))
			n++
		}
	}
	return problems, []metric{
		{"checked_requests", float64(checked), "count"},
		{"answer_mae", errSum / float64(max(n, 1)), "score"},
	}, nil
}

// batchLoad is the scorebatch_jaccard workload: a closed loop over the
// request pool.
type batchLoad struct {
	sz   sizes
	pool []batchReq
	book *answerBook
}

func (l *batchLoad) run(addr string, d time.Duration) loopResult {
	c := newClient(addr, l.sz.Conns)
	defer c.close()
	return closedLoop(l.sz.Conns, d, func(i int) error {
		p := i % len(l.pool)
		a, err := c.scorebatch(&l.pool[p])
		if err != nil {
			return err
		}
		return l.book.note(p, a)
	})
}

func (l *batchLoad) collect(*client) error { return nil }

func (l *batchLoad) verify(ref linkpred.Engine, in *inputs) ([]string, []metric, error) {
	var problems []string
	checked := 0
	for _, p := range sortedKeys(l.book.first) {
		if p%8 != 0 {
			continue
		}
		scores, err := refScoreBatch(ref, linkpred.Jaccard, l.pool[p].pairs)
		if err != nil {
			return nil, nil, err
		}
		if err := sameAnswer(answer{scores: scores}, l.book.first[p]); err != nil {
			problems = append(problems, fmt.Sprintf("scorebatch pool request %d: %v", p, err))
		}
		checked++
	}
	g := exactGraph(in.base)
	var errSum float64
	var n int
	for p := 0; p < l.sz.MAEBatch; p++ {
		a, ok := l.book.first[p]
		if !ok {
			continue
		}
		for i, pr := range l.pool[p].pairs {
			errSum += math.Abs(a.scores[i] - exact.Jaccard(g, pr[0], pr[1]))
			n++
		}
	}
	return problems, []metric{
		{"checked_requests", float64(checked), "count"},
		{"answer_mae", errSum / float64(max(n, 1)), "score"},
	}, nil
}

// refScoreBatch scores pairs on ref the way /scorebatch does: grouped by
// source in order of first appearance, one ScoreBatch call per source.
func refScoreBatch(ref linkpred.Engine, m linkpred.Measure, pairs [][2]uint64) ([]float64, error) {
	scores := make([]float64, len(pairs))
	groups := make(map[uint64][]int)
	var order []uint64
	for i, p := range pairs {
		if _, ok := groups[p[0]]; !ok {
			order = append(order, p[0])
		}
		groups[p[0]] = append(groups[p[0]], i)
	}
	for _, u := range order {
		idxs := groups[u]
		cands := make([]uint64, len(idxs))
		for j, i := range idxs {
			cands[j] = pairs[i][1]
		}
		got, err := ref.ScoreBatch(m, u, cands)
		if err != nil {
			return nil, err
		}
		for j, i := range idxs {
			scores[i] = got[j]
		}
	}
	return scores, nil
}

// mixedLoad is the mixed workload: an open-loop ingest stream and an
// open-loop query stream side by side, one connection each.
type mixedLoad struct {
	sz sizes
	*writeCheck
	queries         []batchReq
	ingest, queried loopResult
	overrun         time.Duration // how long the last request outlived the schedule
}

func (l *mixedLoad) run(addr string, d time.Duration) loopResult {
	ci, cq := newClient(addr, 1), newClient(addr, 1)
	defer ci.close()
	defer cq.close()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		l.ingest = openLoop(start, l.sz.MixedIngestRate, d, func(i int) error { return l.send(ci, i) })
	}()
	go func() {
		defer wg.Done()
		l.queried = openLoop(start, l.sz.MixedQueryRate, d, func(i int) error {
			_, err := cq.scorebatch(&l.queries[i%len(l.queries)])
			return err
		})
	}()
	wg.Wait()
	l.overrun = time.Since(start) - d
	var all loopResult
	all.merge(l.ingest)
	all.merge(l.queried)
	return all
}

func (l *mixedLoad) verify(ref linkpred.Engine, in *inputs) ([]string, []metric, error) {
	problems, details, err := l.writeCheck.verify(ref, in)
	late := append(l.ingest.late, l.queried.late...)
	return problems, append(details,
		metric{"ingest_p50_ms", l.ingest.lat.p(0.50), "ms"},
		metric{"ingest_p99_ms", l.ingest.lat.p(0.99), "ms"},
		metric{"query_p50_ms", l.queried.lat.p(0.50), "ms"},
		metric{"query_p99_ms", l.queried.lat.p(0.99), "ms"},
		metric{"client.late_p99_ms", late.p(0.99), "ms"},
		metric{"schedule_overrun_s", l.overrun.Seconds(), "s"},
	), err
}

// exactGraph materialises the base graph for the answer-error sample.
func exactGraph(edges []stream.Edge) *graph.Graph {
	g := graph.New()
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}
