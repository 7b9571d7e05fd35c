package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	linkpred "linkpred"
)

// tinySizes is fullSizes scaled down so a run takes about a second.
var tinySizes = sizes{
	Scale: 10, BaseEdges: 8192,
	IngestFrame: 256, IngestEPS: 50_000,
	TopKCands: 64, TopKK: 10, Pool: 64,
	BatchSources: 8, BatchCands: 4, BatchHot: 128,
	MixedIngestRate: 40, MixedFrame: 64, MixedQueryRate: 40, MixedSources: 4, MixedCands: 4,
	Conns: 2, Boots: 2, MAETopK: 16, MAEBatch: 2,
}

func TestMain(m *testing.M) {
	// The traced runs re-execute the test binary as the -serve child.
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks that each passes its correctness gate and emits every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadNamed(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	work := t.TempDir()
	bin, err := buildLPServer("../..", work)
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		for _, w := range workloads {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{sz: tinySizes, seconds: 1, work: work, lpserver: bin, self: self, traced: traced}
				r, err := runOnce(cfg, w, 7)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted < 1 {
					t.Fatal(r.describe())
				}
				got := make(map[string]bool)
				for _, m := range append(r.EndToEnd, r.PerLayer...) {
					got[m.Name] = true
				}
				for _, m := range want {
					if !got[m.Name] {
						t.Errorf("metric %s not emitted", m.Name)
					}
				}
				// Layer spans run inside their handlers, so per endpoint they
				// can cover at most the handler wall time.
				for _, m := range r.Details {
					if strings.HasSuffix(m.Name, ".layers_pct") && m.Value > 100 {
						t.Errorf("%s = %.1f: a span was attributed to the wrong endpoint", m.Name, m.Value)
					}
				}
				var buf bytes.Buffer
				if err := printRun(&buf, r); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
				var last struct {
					Correct bool
					Metrics map[string]json.RawMessage
				}
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || !last.Correct || len(last.Metrics) != len(want) {
					t.Fatalf("last line %s: %v", lines[len(lines)-1], err)
				}
			})
		}
	}
	if _, err := os.Stat(work + "/trace.json"); err != nil {
		t.Errorf("traced runs left no trace.json: %v", err)
	}
}

func TestSameAnswerIsBitExact(t *testing.T) {
	want := answer{ids: []uint64{3, 1}, scores: []float64{0.5, 0.25}}
	if err := sameAnswer(want, want); err != nil {
		t.Fatal(err)
	}
	ulp := answer{ids: want.ids, scores: []float64{0.5, math.Nextafter(0.25, 1)}}
	swapped := answer{ids: []uint64{1, 3}, scores: want.scores}
	short := answer{ids: want.ids[:1], scores: want.scores[:1]}
	for _, got := range []answer{ulp, swapped, short} {
		if sameAnswer(want, got) == nil {
			t.Errorf("%v accepted as %v", got, want)
		}
	}
	book := newAnswerBook(func(p int) bool { return p == 0 })
	if book.note(0, want) != nil || book.note(0, want) != nil || book.note(1, ulp) != nil {
		t.Fatal("consistent or untracked answers rejected")
	}
	if book.note(0, ulp) == nil {
		t.Fatal("a repeat that changed its answer was accepted")
	}
}

// baseFixture writes a tiny base snapshot and returns the inputs and the
// template directory.
func baseFixture(t *testing.T, streamEdges int) (*inputs, string) {
	t.Helper()
	in, err := makeInputs(tinySizes, 3, streamEdges)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if in.baseEdges, err = writeTemplate(dir, in.base); err != nil {
		t.Fatal(err)
	}
	return in, dir
}

func reference(t *testing.T, dir string) linkpred.Engine {
	t.Helper()
	ref, err := loadReference(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestReadGateRejectsTamperedScore(t *testing.T) {
	in, dir := baseFixture(t, 0)
	sz := tinySizes
	sz.Pool = 8
	ref := reference(t, dir)

	topk := &topkLoad{sz: sz, pool: in.topkPool(sz), book: newAnswerBook(func(int) bool { return true })}
	ranked, err := ref.TopK(linkpred.AdamicAdar, topk.pool[0].u, topk.pool[0].cands, sz.TopKK)
	if err != nil || len(ranked) == 0 {
		t.Fatalf("reference topk: %v, %d results", err, len(ranked))
	}
	a := answer{}
	for _, c := range ranked {
		a.ids, a.scores = append(a.ids, c.V), append(a.scores, c.Score)
	}
	pool, err := batchPool(sz.Pool, "jaccard", sz.BatchSources, sz.BatchCands, in.hotDraw, in.hotDraw)
	if err != nil {
		t.Fatal(err)
	}
	batch := &batchLoad{sz: sz, pool: pool, book: newAnswerBook(func(int) bool { return true })}
	scores, err := refScoreBatch(ref, linkpred.Jaccard, pool[0].pairs)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		ld     load
		book   *answerBook
		answer answer
	}{
		{"topk", topk, topk.book, a},
		{"scorebatch", batch, batch.book, answer{scores: scores}},
	} {
		tc.book.first[0] = tc.answer
		if problems, _, err := tc.ld.verify(ref, in); err != nil || len(problems) != 0 {
			t.Fatalf("%s: true answer rejected: %v %v", tc.name, problems, err)
		}
		tampered := answer{ids: tc.answer.ids, scores: append([]float64(nil), tc.answer.scores...)}
		tampered.scores[0] = math.Float64frombits(math.Float64bits(tampered.scores[0]) ^ 1)
		tc.book.first[0] = tampered
		if problems, _, _ := tc.ld.verify(ref, in); len(problems) != 1 {
			t.Fatalf("%s: tampered score gave problems %v", tc.name, problems)
		}
	}
}

func TestWriteGateRejectsTamperedCheckpoint(t *testing.T) {
	in, dir := baseFixture(t, 1000)
	base := in.baseEdges
	wc, err := newWriteCheck(in.stream, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Send 1 was never acknowledged; sends past the last frame wrap.
	server := reference(t, dir)
	acked := int64(0)
	for i := 0; i < 2*len(wc.frames); i++ {
		if i != 1 {
			wc.acked[i] = true
			f := i % len(wc.frames)
			server.ObserveEdges(toEdges(wc.edges[f]))
			acked += int64(len(wc.edges[f]))
		}
	}
	var img bytes.Buffer
	if err := server.Save(&img); err != nil {
		t.Fatal(err)
	}

	check := func(image []byte, statEdges int64) []string {
		wc.ckptSum = sha256.Sum256(image)
		wc.statEdges = statEdges
		problems, _, err := wc.verify(reference(t, dir), in)
		if err != nil {
			t.Fatal(err)
		}
		return problems
	}
	if p := check(img.Bytes(), base+acked); len(p) != 0 {
		t.Fatalf("true checkpoint rejected: %v", p)
	}
	tampered := append([]byte(nil), img.Bytes()...)
	tampered[len(tampered)/2] ^= 1
	if p := check(tampered, base+acked); len(p) != 1 {
		t.Fatalf("tampered checkpoint byte gave problems %v", p)
	}
	if p := check(img.Bytes(), base+acked+1); len(p) != 1 {
		t.Fatalf("wrong /stats edge count gave problems %v", p)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Python: statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data        []float64
		q1, m, q3   float64
		description string
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, "1..10"},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, "two values"},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25, "unsorted"},
	} {
		q1, m, q3 := quartiles(tc.data)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("%s: quartiles %v %v %v, want %v %v %v", tc.description, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const period = 20 * time.Millisecond
	// Request 0 stalls for 3.5 periods, so requests 1..3 are sent late,
	// and their latency must include the wait behind it.
	r := openLoop(time.Now(), float64(time.Second/period), 4*period, func(i int) error {
		if i == 0 {
			time.Sleep(7 * period / 2)
		}
		return nil
	})
	if r.attempted != 4 || r.failed != 0 || len(r.lat) != 4 || len(r.late) != 4 {
		t.Fatalf("attempted %d failed %d, %d latencies %d lateness", r.attempted, r.failed, len(r.lat), len(r.late))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i, wantLate := range []time.Duration{0, 5 * period / 2, 3 * period / 2, period / 2} {
		if r.late[i] < ms(wantLate) || r.lat[i] < ms(wantLate) {
			t.Errorf("request %d: late %.2fms latency %.2fms, want both at least %.2fms", i, r.late[i], r.lat[i], ms(wantLate))
		}
	}
	if r.lat[0] < ms(7*period/2) {
		t.Errorf("stalled request latency %.2fms", r.lat[0])
	}
}

func TestClosedLoopSendsAPrefix(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]bool)
	r := closedLoop(3, 50*time.Millisecond, func(i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		if i%10 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if r.attempted < 3 || len(r.lat) != r.attempted || len(r.done) != r.attempted || len(seen) != r.attempted {
		t.Fatalf("attempted %d, %d latencies, %d completions, %d distinct", r.attempted, len(r.lat), len(r.done), len(seen))
	}
	for i := 0; i < r.attempted; i++ {
		if !seen[i] {
			t.Fatalf("request %d never sent", i)
		}
	}
	if want := (r.attempted + 9) / 10; r.failed != want {
		t.Fatalf("failed %d, want %d", r.failed, want)
	}
}

func TestSegmentMedians(t *testing.T) {
	// 100 completions per 2s segment over 10s, latency k+1 ms in segment
	// k; the last segment burns six times the CPU of the others and the
	// fourth completes nothing.
	var r loopResult
	for k := 0; k < 5; k++ {
		for i := 0; i < 100 && k != 3; i++ {
			r.record(time.Duration(k+1)*time.Millisecond, time.Duration(k)*2*time.Second+time.Duration(i)*20*time.Millisecond, nil)
		}
	}
	got := segmentMedians(r, 10*time.Second, []float64{0, 1, 2, 3, 3, 9})
	if math.Abs(got.reqPerSec-50) > 1e-9 || got.p50 != 2.5 || got.p95 != 2.5 || got.cpuMSPerReq != 10 {
		t.Fatalf("segment medians %+v, want 50/s, p50 = p95 = 2.5ms, 10ms CPU per request", got)
	}
}
