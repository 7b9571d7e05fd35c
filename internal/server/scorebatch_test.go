package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/candidates"
	"linkpred/internal/gen"
	"linkpred/internal/stream"
)

func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d; body: %s", url, resp.StatusCode, wantStatus, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScoreBatchEndpoint(t *testing.T) {
	ts, pred := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)

	type pair struct {
		U uint64 `json:"u"`
		V uint64 `json:"v"`
	}
	// Interleaved sources: the handler groups by source, scores each group
	// in one batch, and must scatter scores back into request order.
	pairs := []pair{{1, 2}, {2, 10}, {1, 11}, {2, 1}, {1, 2}, {1, 999}}
	out := postJSON(t, ts.URL+"/scorebatch", map[string]any{
		"measure": "jaccard", "pairs": pairs,
	}, http.StatusOK)
	scores, ok := out["scores"].([]any)
	if !ok || len(scores) != len(pairs) {
		t.Fatalf("scores = %v, want %d entries", out["scores"], len(pairs))
	}
	for i, p := range pairs {
		want := pred.Jaccard(p.U, p.V)
		if got := scores[i].(float64); got != want {
			t.Errorf("pair %d (%d,%d): score %v, want %v", i, p.U, p.V, got, want)
		}
	}
	if out["pairs"].(float64) != float64(len(pairs)) {
		t.Errorf("pairs = %v, want %d", out["pairs"], len(pairs))
	}

	// Default measure is adamic-adar, matching GET /score.
	out = postJSON(t, ts.URL+"/scorebatch", map[string]any{
		"pairs": []pair{{1, 2}},
	}, http.StatusOK)
	if got, want := out["scores"].([]any)[0].(float64), pred.AdamicAdar(1, 2); got != want {
		t.Errorf("default measure score = %v, want adamic-adar %v", got, want)
	}

	postJSON(t, ts.URL+"/scorebatch", map[string]any{
		"measure": "nope", "pairs": []pair{{1, 2}},
	}, http.StatusBadRequest)

	resp, err := http.Post(ts.URL+"/scorebatch", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Per-measure latency metrics surfaced under "scorebatch".
	metrics := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	sb, ok := metrics["scorebatch"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing scorebatch section: %v", metrics)
	}
	jm, ok := sb["jaccard"].(map[string]any)
	if !ok || jm["count"].(float64) < 1 {
		t.Errorf("scorebatch jaccard metrics = %v, want count >= 1", sb["jaccard"])
	}
	if aa := sb["adamic-adar"].(map[string]any); aa["count"].(float64) < 1 {
		t.Errorf("scorebatch adamic-adar metrics = %v, want count >= 1", sb["adamic-adar"])
	}
}

func TestScoreBatchBodyCap(t *testing.T) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 16, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(pred, Options{MaxBodyBytes: 64}))
	defer ts.Close()
	big := map[string]any{"measure": "jaccard", "pairs": make([]map[string]uint64, 100)}
	for i := range big["pairs"].([]map[string]uint64) {
		big["pairs"].([]map[string]uint64)[i] = map[string]uint64{"u": 1, "v": 2}
	}
	postJSON(t, ts.URL+"/scorebatch", big, http.StatusRequestEntityTooLarge)
}

// TestTopKNoDuplicateResults is the HTTP-level regression test for the
// duplicate-candidate bug: repeated ids in the candidates parameter used
// to produce repeated result rows.
func TestTopKNoDuplicateResults(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	out := getJSON(t, ts.URL+"/topk?u=1&candidates=2,2,2,2,10,11&measure=jaccard&k=5", http.StatusOK)
	ranked := out["candidates"].([]any)
	seen := map[float64]bool{}
	for _, r := range ranked {
		v := r.(map[string]any)["v"].(float64)
		if seen[v] {
			t.Fatalf("duplicate result entry for v=%v: %v", v, ranked)
		}
		seen[v] = true
	}
	if len(ranked) != 3 { // distinct candidates: 2, 10, 11
		t.Fatalf("got %d results, want 3: %v", len(ranked), ranked)
	}
}

func TestTopKWithCandidateTracker(t *testing.T) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := candidates.New(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(pred, Options{Candidates: tracker}))
	defer ts.Close()
	// Two passes: the tracker counts two-hop paths u–v–w through v's
	// recent neighbors, so the second pass over the shared neighborhood
	// is what fills vertex 1's pool with its two-hop partner 2.
	ingest(t, ts, sharedFixture(), http.StatusOK)
	ingest(t, ts, sharedFixture(), http.StatusOK)

	// No candidates parameter: the tracker proposes vertex 1's frequent
	// two-hop partners from the ingested stream.
	out := getJSON(t, ts.URL+"/topk?u=1&measure=jaccard&k=5", http.StatusOK)
	ranked := out["candidates"].([]any)
	if len(ranked) == 0 {
		t.Fatalf("tracker-backed topk returned no candidates: %v", out)
	}
	for _, r := range ranked {
		if v := r.(map[string]any)["v"].(float64); v == 1 {
			t.Fatalf("tracker-backed topk returned the query vertex itself: %v", ranked)
		}
	}

	// An explicit list still wins over the tracker.
	out = getJSON(t, ts.URL+"/topk?u=1&candidates=2&measure=jaccard&k=5", http.StatusOK)
	if got := out["candidates"].([]any); len(got) != 1 || got[0].(map[string]any)["v"].(float64) != 2 {
		t.Fatalf("explicit candidates overridden: %v", got)
	}
}

func TestTopKMissingCandidatesWithoutTracker(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	out := getJSON(t, ts.URL+"/topk?u=1&measure=jaccard", http.StatusBadRequest)
	if msg, _ := out["error"].(string); msg != "missing candidates" {
		t.Fatalf("error = %q, want %q", msg, "missing candidates")
	}
}

// TestIngestFeedsTracker pins the ingest → tracker wiring: edges posted
// to /ingest must become visible to tracker-backed /topk immediately.
func TestIngestFeedsTracker(t *testing.T) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := candidates.New(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(pred, Options{Candidates: tracker}))
	defer ts.Close()
	// Edge (7,9) arrives when 7's recent ring holds 8, making 8 a counted
	// two-hop candidate of 9 (path 9–7–8).
	ingest(t, ts, "7 8\n7 9\n", http.StatusOK)
	if !tracker.Knows(7) || !tracker.Knows(8) {
		t.Fatalf("tracker did not observe ingested edges")
	}
	out := getJSON(t, ts.URL+"/topk?u=9&measure=common-neighbors&k=5", http.StatusOK)
	ranked := out["candidates"].([]any)
	if len(ranked) != 1 || ranked[0].(map[string]any)["v"].(float64) != 8 {
		t.Fatalf("tracker-backed topk for 9 = %v, want exactly candidate 8", ranked)
	}
}

// batchBody is a /scorebatch body as json.Marshal writes it, the shape
// scanScoreBatch takes.
func batchBody(t testing.TB, measure string, pairs [][2]uint64) []byte {
	t.Helper()
	type pair struct {
		U uint64 `json:"u"`
		V uint64 `json:"v"`
	}
	body := struct {
		Measure string `json:"measure"`
		Pairs   []pair `json:"pairs"`
	}{Measure: measure, Pairs: make([]pair, len(pairs))}
	for i, p := range pairs {
		body.Pairs[i] = pair{p[0], p[1]}
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// declinedBodies are bodies scanScoreBatch must leave to encoding/json,
// whichever way it decides them.
var declinedBodies = map[string]string{
	"escaped measure":       `{"measure":"j\u0061ccard","pairs":[{"u":1,"v":2}]}`,
	"non-ASCII measure":     `{"measure":"jaccärd","pairs":[{"u":1,"v":2}]}`,
	"control byte":          "{\"measure\":\"jac\tcard\",\"pairs\":[{\"u\":1,\"v\":2}]}",
	"key case":              `{"Measure":"jaccard","pairs":[{"u":1,"v":2}]}`,
	"pair key case":         `{"measure":"jaccard","pairs":[{"U":1,"v":2}]}`,
	"key order":             `{"pairs":[{"u":1,"v":2}],"measure":"jaccard"}`,
	"pair key order":        `{"measure":"jaccard","pairs":[{"v":2,"u":1}]}`,
	"missing measure":       `{"pairs":[{"u":1,"v":2}]}`,
	"missing v":             `{"measure":"jaccard","pairs":[{"u":1}]}`,
	"null pairs":            `{"measure":"jaccard","pairs":null}`,
	"null measure":          `{"measure":null,"pairs":[{"u":1,"v":2}]}`,
	"null value":            `{"measure":"jaccard","pairs":[{"u":null,"v":2}]}`,
	"float":                 `{"measure":"jaccard","pairs":[{"u":1.5,"v":2}]}`,
	"integral float":        `{"measure":"jaccard","pairs":[{"u":1.0,"v":2}]}`,
	"exponent":              `{"measure":"jaccard","pairs":[{"u":1e2,"v":2}]}`,
	"negative":              `{"measure":"jaccard","pairs":[{"u":-1,"v":2}]}`,
	"negative zero":         `{"measure":"jaccard","pairs":[{"u":-0,"v":2}]}`,
	"leading zero":          `{"measure":"jaccard","pairs":[{"u":01,"v":2}]}`,
	"2^64":                  `{"measure":"jaccard","pairs":[{"u":18446744073709551616,"v":2}]}`,
	"repeated key":          `{"measure":"jaccard","pairs":[{"u":1,"u":3,"v":2}]}`,
	"repeated measure":      `{"measure":"jaccard","measure":"cosine","pairs":[{"u":1,"v":2}]}`,
	"unknown key":           `{"measure":"jaccard","pairs":[{"u":1,"v":2,"w":3}]}`,
	"unknown top-level key": `{"measure":"jaccard","pairs":[{"u":1,"v":2}],"k":1}`,
	"trailing value":        `{"measure":"jaccard","pairs":[{"u":1,"v":2}]}{"x":1}`,
	"trailing garbage":      `{"measure":"jaccard","pairs":[{"u":1,"v":2}]} x`,
	"trailing comma":        `{"measure":"jaccard","pairs":[{"u":1,"v":2},]}`,
	"unterminated":          `{"measure":"jaccard","pairs":[{"u":1,"v":2}`,
	"string number":         `{"measure":"jaccard","pairs":[{"u":"1","v":2}]}`,
	"empty":                 ``,
	"not json":              `{not json`,
}

// FuzzScoreBatchBody: whenever the scanner takes a body, encoding/json
// accepts it too and decodes the same measure and pairs, so taking a
// body never changes what the handler answers. Seeds: a bench-shaped
// body, whitespace between every token, the uint64 bounds and every
// shape the scanner must decline.
func FuzzScoreBatchBody(f *testing.F) {
	pairs := make([][2]uint64, 0, 64)
	for s := uint64(0); s < 4; s++ {
		for c := uint64(0); c < 16; c++ {
			pairs = append(pairs, [2]uint64{1000 + s*37, 5000 + c*11})
		}
	}
	f.Add(batchBody(f, "jaccard", pairs))
	f.Add([]byte(" {\n\t\"measure\" : \"adamic-adar\" ,\r\n \"pairs\" : [ { \"u\" : 0 , \"v\" : 18446744073709551615 } ] } \n"))
	f.Add([]byte(`{"measure":"","pairs":[]}`))
	for _, b := range declinedBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		measure, pairs, ok := scanScoreBatch(body, nil)
		if !ok {
			return
		}
		var req scoreBatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("scanner took %q, encoding/json rejects it: %v", body, err)
		}
		if string(measure) != req.Measure {
			t.Fatalf("%q: measure %q, encoding/json %q", body, measure, req.Measure)
		}
		if len(pairs) != len(req.Pairs) {
			t.Fatalf("%q: %d pairs, encoding/json %d", body, len(pairs), len(req.Pairs))
		}
		for i, p := range pairs {
			if p.u != req.Pairs[i].U || p.v != req.Pairs[i].V || p.i != i {
				t.Fatalf("%q: pair %d = %+v, encoding/json %+v", body, i, p, req.Pairs[i])
			}
		}
	})
}

func TestScanScoreBatchDeclines(t *testing.T) {
	for name, body := range declinedBodies {
		if _, _, ok := scanScoreBatch([]byte(body), nil); ok {
			t.Errorf("%s: scanner took %q", name, body)
		}
	}
	if _, pairs, ok := scanScoreBatch([]byte(`{"measure":"x","pairs":[{"u":18446744073709551615,"v":0}]}`), nil); !ok ||
		len(pairs) != 1 || pairs[0].u != math.MaxUint64 {
		t.Errorf("scanner declined 2^64-1: ok %v pairs %v", ok, pairs)
	}
}

// TestScoreBatchEncoderMatchesWriteJSON: the append encoder writes the
// bytes writeJSON writes for the same response, trailing newline and
// float format included.
func TestScoreBatchEncoderMatchesWriteJSON(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 1024, 0.5, 1.0 / 3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-7, 9.999999e-7,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 123456789e13,
		math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 1, -(1 << 62), 1e100, 1e-100, 5e-324,
	}
	rnd := rand.New(rand.NewSource(7))
	scores := append([]float64(nil), special...)
	for len(scores) < 20000 {
		var f float64
		switch rnd.Intn(3) {
		case 0: // any finite bit pattern
			f = math.Float64frombits(rnd.Uint64())
		case 1: // the unit interval most measures land in
			f = rnd.Float64()
		default: // integers (common neighbors, preferential attachment)
			f = float64(rnd.Int63n(1 << 40))
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			scores = append(scores, f)
		}
	}
	check := func(measure string, scores []float64) {
		t.Helper()
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]any{"measure": measure, "pairs": len(scores), "scores": scores})
		got, ok := appendScoreBatchResponse(nil, measure, scores)
		if !ok {
			t.Fatalf("encoder declined %q with %d finite scores", measure, len(scores))
		}
		if want := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote\n%s\nwriteJSON wrote\n%s", got, want)
		}
	}
	check("jaccard", scores)
	for _, f := range scores {
		check("adamic-adar", []float64{f})
	}
	check("cosine", []float64{})
	for _, bad := range [][]float64{{math.NaN()}, {1, math.Inf(1)}, {math.Inf(-1)}} {
		if _, ok := appendScoreBatchResponse(nil, "jaccard", bad); ok {
			t.Errorf("encoder took non-finite scores %v", bad)
		}
	}
	if _, ok := appendScoreBatchResponse(nil, "a<b", []float64{1}); ok {
		t.Error("encoder took a measure encoding/json escapes")
	}
}

// countingEngine records every ScoreBatch call. It implements only the
// plain Engine surface, so the handler takes its non-context path.
type countingEngine struct {
	linkpred.Engine
	mu    sync.Mutex
	calls map[uint64][][]uint64
}

func (c *countingEngine) ScoreBatch(m linkpred.Measure, u uint64, cands []uint64) ([]float64, error) {
	c.mu.Lock()
	c.calls[u] = append(c.calls[u], append([]uint64(nil), cands...))
	c.mu.Unlock()
	return c.Engine.ScoreBatch(m, u, cands)
}

// TestScoreBatchGroupsBySource: an interleaved body costs one ScoreBatch
// call per distinct source, each with its candidates in request order,
// and the scores come back in request order.
func TestScoreBatchGroupsBySource(t *testing.T) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 64, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := &countingEngine{Engine: pred, calls: map[uint64][][]uint64{}}
	ts := httptest.NewServer(New(eng))
	defer ts.Close()
	ingest(t, ts, sharedFixture(), http.StatusOK)

	// Sources 1, 257 and 2^63+1 share their low byte, so grouping them
	// needs every byte in which they differ.
	const high = 1<<63 | 1
	pairs := [][2]uint64{{2, 10}, {1, 11}, {257, 1}, {1, 2}, {high, 2}, {2, 11}, {1, 10}, {257, 2}, {2, 1}, {high, 10}, {1, 11}}
	resp, err := http.Post(ts.URL+"/scorebatch", "application/json", bytes.NewReader(batchBody(t, "jaccard", pairs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode error %v", resp.StatusCode, err)
	}
	want := map[uint64][][]uint64{1: {{11, 2, 10, 11}}, 2: {{10, 11, 1}}, 257: {{1, 2}}, high: {{2, 10}}}
	if !reflect.DeepEqual(eng.calls, want) {
		t.Errorf("ScoreBatch calls %v, want %v", eng.calls, want)
	}
	for i, p := range pairs {
		if w := pred.Jaccard(p[0], p[1]); out.Scores[i] != w {
			t.Errorf("pair %d %v: score %v, want %v", i, p, out.Scores[i], w)
		}
	}
}

// TestScoreBatchStatusParity: the bodies the scanner declines, or whose
// read fails, are answered as encoding/json decoding the body itself
// answers them: over the cap is 413, a complete value with trailing
// bytes is 200, a malformed body is 400 with the decoder's message.
func TestScoreBatchStatusParity(t *testing.T) {
	pred, err := linkpred.NewConcurrent(linkpred.Config{K: 16, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4096
	ts := httptest.NewServer(NewWithOptions(pred, Options{MaxBodyBytes: limit}))
	defer ts.Close()
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/scorebatch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	valid := `{"measure":"jaccard","pairs":[{"u":1,"v":2}]}`
	cases := []struct {
		name, body string
		status     int
		err        string // the error message, when status is not 200
	}{
		{"over the cap", `{"measure":"jaccard","pairs":[` + strings.Repeat(`{"u":1,"v":2},`, limit/10) + `{"u":1,"v":2}]}`,
			http.StatusRequestEntityTooLarge, "bad scorebatch body: http: request body too large"},
		{"value within the cap, bytes past it", valid + strings.Repeat(" x", limit), http.StatusOK, ""},
		{"syntax error, bytes past the cap", `{"measure" 1` + strings.Repeat(" ", 2*limit), http.StatusBadRequest,
			"bad scorebatch body: invalid character '1' after object key"},
		{"trailing bytes", valid + `garbage`, http.StatusOK, ""},
		{"trailing value", valid + valid, http.StatusOK, ""},
		{"malformed", `{not json`, http.StatusBadRequest,
			"bad scorebatch body: invalid character 'n' looking for beginning of object key string"},
		{"empty", ``, http.StatusBadRequest, "bad scorebatch body: EOF"},
		{"truncated", valid[:20], http.StatusBadRequest, "bad scorebatch body: unexpected EOF"},
		{"float id", `{"measure":"jaccard","pairs":[{"u":1.5,"v":2}]}`, http.StatusBadRequest,
			"bad scorebatch body: json: cannot unmarshal number 1.5 into Go struct field .pairs.u of type uint64"},
		{"unknown measure", `{"measure":"nope","pairs":[]}`, http.StatusBadRequest, `unknown measure "nope"`},
		{"default measure", `{"pairs":[{"u":1,"v":2}]}`, http.StatusOK, ""},
	}
	for _, tc := range cases {
		status, out := post(tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, status, tc.status, out)
			continue
		}
		if tc.err != "" && out["error"] != tc.err {
			t.Errorf("%s: error %q, want %q", tc.name, out["error"], tc.err)
		}
	}
}

// TestScoreBatchConcurrentBodies: requests running at once, each with
// its own body, get their own answers, whatever scratch the pool hands
// them.
func TestScoreBatchConcurrentBodies(t *testing.T) {
	ts, pred := newTestServer(t)
	ingest(t, ts, sharedFixture(), http.StatusOK)
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// A distinct length and mix per worker and round.
				var pairs [][2]uint64
				for i := 0; i <= (w*rounds+r)%13; i++ {
					pairs = append(pairs, [2]uint64{uint64(1 + (w+i)%2), uint64(10 + (r+i)%3)})
				}
				resp, err := http.Post(ts.URL+"/scorebatch", "application/json", bytes.NewReader(batchBody(t, "jaccard", pairs)))
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Pairs  int       `json:"pairs"`
					Scores []float64 `json:"scores"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || out.Pairs != len(pairs) || len(out.Scores) != len(pairs) {
					t.Errorf("worker %d round %d: %d pairs, %d scores, error %v; want %d", w, r, out.Pairs, len(out.Scores), err, len(pairs))
					return
				}
				for i, p := range pairs {
					if want := pred.Jaccard(p[0], p[1]); out.Scores[i] != want {
						t.Errorf("worker %d round %d pair %d: score %v, want %v", w, r, i, out.Scores[i], want)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkScoreBatchHandler sends bench/e2e's scorebatch_jaccard shape
// (64 sources × 16 candidates, both drawn from the highest-degree
// vertices) through Server.ServeHTTP, on a scale-14 R-MAT store with the
// e2e server's sketch settings (K=128, 8 shards, KMV degrees).
func BenchmarkScoreBatchHandler(b *testing.B) {
	const scale = 14
	src, err := gen.RMAT(scale, 1<<17, .57, .19, .19, .05, 21)
	if err != nil {
		b.Fatal(err)
	}
	edges, err := stream.Collect(src)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode:   linkpred.ModeConcurrent,
		Config: linkpred.Config{K: 128, Seed: 42, DistinctDegrees: true},
		Shards: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng.ObserveEdges(edges)
	deg := make([]int, 1<<scale)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	hot := make([]uint64, len(deg))
	for v := range hot {
		hot[v] = uint64(v)
	}
	sort.SliceStable(hot, func(i, j int) bool { return deg[hot[i]] > deg[hot[j]] })
	hot = hot[:1024]
	rnd := rand.New(rand.NewSource(22))
	bodies := make([][]byte, 16)
	for i := range bodies {
		pairs := make([][2]uint64, 0, 64*16)
		for s := 0; s < 64; s++ {
			u := hot[rnd.Intn(len(hot))]
			for c := 0; c < 16; c++ {
				pairs = append(pairs, [2]uint64{u, hot[rnd.Intn(len(hot))]})
			}
		}
		bodies[i] = batchBody(b, "jaccard", pairs)
	}
	srv := New(eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/scorebatch", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
