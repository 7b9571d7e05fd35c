package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"linkpred/internal/wal"
)

// client sends requests to one server over at most conns connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends req and decodes the 200 response body into out (when
// non-nil). Any other status, a transport error or a malformed body is
// an error.
func (c *client) call(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: malformed body: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

func (c *client) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.call(req, out)
}

// ingest posts one binary frame and checks that all its edges were
// acknowledged.
func (c *client) ingest(frame []byte, edges int) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/ingest", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wal.FrameContentType)
	var resp struct {
		Ingested int `json:"ingested"`
	}
	if err := c.call(req, &resp); err != nil {
		return err
	}
	if resp.Ingested != edges {
		return fmt.Errorf("ingest acknowledged %d of %d edges", resp.Ingested, edges)
	}
	return nil
}

// answer is a decoded query response: ranked ids with their scores from
// /topk, or scores aligned with the request's pairs from /scorebatch
// (ids nil).
type answer struct {
	ids    []uint64
	scores []float64
}

func (c *client) topk(r *topkReq, k int) (answer, error) {
	var resp struct {
		Candidates []struct {
			V     uint64  `json:"v"`
			Score float64 `json:"score"`
		} `json:"candidates"`
	}
	if err := c.get(r.url, &resp); err != nil {
		return answer{}, err
	}
	if len(resp.Candidates) > k {
		return answer{}, fmt.Errorf("topk returned %d candidates, asked for %d", len(resp.Candidates), k)
	}
	a := answer{ids: make([]uint64, len(resp.Candidates)), scores: make([]float64, len(resp.Candidates))}
	for i, cand := range resp.Candidates {
		a.ids[i], a.scores[i] = cand.V, cand.Score
	}
	return a, a.finite()
}

func (c *client) scorebatch(r *batchReq) (answer, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/scorebatch", bytes.NewReader(r.body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp struct {
		Scores []float64 `json:"scores"`
	}
	if err := c.call(req, &resp); err != nil {
		return answer{}, err
	}
	if len(resp.Scores) != len(r.pairs) {
		return answer{}, fmt.Errorf("scorebatch returned %d scores for %d pairs", len(resp.Scores), len(r.pairs))
	}
	a := answer{scores: resp.Scores}
	return a, a.finite()
}

// finite rejects negative, NaN or infinite scores: every measure the
// workloads query is a finite non-negative number.
func (a answer) finite() error {
	for _, s := range a.scores {
		if !(s >= 0) || math.IsInf(s, 0) {
			return fmt.Errorf("score %v is not a finite non-negative number", s)
		}
	}
	return nil
}

// sameAnswer reports whether got equals want bit for bit: the same ids
// in the same order and identical float64 scores.
func sameAnswer(want, got answer) error {
	if len(want.ids) != len(got.ids) || len(want.scores) != len(got.scores) {
		return fmt.Errorf("answer has %d ids and %d scores, want %d and %d", len(got.ids), len(got.scores), len(want.ids), len(want.scores))
	}
	for i := range want.ids {
		if want.ids[i] != got.ids[i] {
			return fmt.Errorf("rank %d is vertex %d, want %d", i, got.ids[i], want.ids[i])
		}
	}
	for i := range want.scores {
		if math.Float64bits(want.scores[i]) != math.Float64bits(got.scores[i]) {
			return fmt.Errorf("score %d is %v, want %v", i, got.scores[i], want.scores[i])
		}
	}
	return nil
}

// answerBook keeps the first answer to each tracked pool request and
// checks that every repeat of that request reads the same, bit for bit.
type answerBook struct {
	track func(p int) bool
	mu    sync.Mutex
	first map[int]answer
}

func newAnswerBook(track func(p int) bool) *answerBook {
	return &answerBook{track: track, first: make(map[int]answer)}
}

func (b *answerBook) note(p int, a answer) error {
	if !b.track(p) {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.first[p]; ok {
		if err := sameAnswer(prev, a); err != nil {
			return fmt.Errorf("pool request %d changed its answer: %w", p, err)
		}
		return nil
	}
	b.first[p] = a
	return nil
}

// loopResult is what a load generator measured.
type loopResult struct {
	lat       latencies
	done      []time.Duration // when each request completed, from the start of the phase
	late      latencies       // open loop only: how far behind schedule each send began
	attempted int
	failed    int
	errs      []string // the first few failures
}

func (r *loopResult) record(lat, done time.Duration, err error) {
	r.lat.add(lat)
	r.done = append(r.done, done)
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

func (r *loopResult) merge(o loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.done = append(r.done, o.done...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// closedLoop runs conns workers, each sending its next request as soon
// as its previous one completed, until d has passed. Requests are
// numbered in start order, so the ones sent are exactly
// 0 .. attempted-1.
func closedLoop(conns int, d time.Duration, op func(i int) error) loopResult {
	var next atomic.Int64
	parts := make([]loopResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := op(i)
				r.record(time.Since(t0), time.Since(start), err)
			}
		}(&parts[w])
	}
	wg.Wait()
	var res loopResult
	for _, p := range parts {
		res.merge(p)
	}
	return res
}

// openLoop sends op(i) when it falls due at start + i/rate, on one
// connection, for a schedule of length d. Latency counts from the due
// time, so a stall also charges every request queued behind it; late
// records how far behind schedule each send began.
func openLoop(start time.Time, rate float64, d time.Duration, op func(i int) error) loopResult {
	var r loopResult
	for i := 0; ; i++ {
		offset := time.Duration(float64(i) / rate * float64(time.Second))
		if offset >= d {
			break
		}
		due := start.Add(offset)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r.late.add(time.Since(due))
		err := op(i)
		r.record(time.Since(due), time.Since(start), err)
	}
	return r
}
