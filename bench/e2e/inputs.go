package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	linkpred "linkpred"
	"linkpred/internal/gen"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// sizes fixes the shape of every input. The benchmark runs fullSizes;
// the smoke test runs a tiny instance of the same shapes.
type sizes struct {
	Scale     int // R-MAT scale: vertex ids lie in [0, 2^Scale)
	BaseEdges int // R-MAT edges in the base graph every server boots from

	IngestFrame int // edges per /ingest frame in the ingest workload
	IngestEPS   int // ingest stream generated per measured second; a faster server wraps around

	TopKCands int // explicit candidates per /topk request
	TopKK     int // k of every /topk request
	Pool      int // pre-built requests per read workload, sent in fixed order

	BatchSources int // distinct-draw sources per scorebatch_jaccard request
	BatchCands   int // candidates per source
	BatchHot     int // sources and candidates come from this many highest-degree vertices

	MixedIngestRate float64 // /ingest frames per second in mixed
	MixedFrame      int     // edges per mixed ingest frame
	MixedQueryRate  float64 // /scorebatch requests per second in mixed
	MixedSources    int
	MixedCands      int

	Conns    int // closed-loop connections
	Boots    int // server boots per run; setup_s is their median
	MAETopK  int // leading topk_aa pool requests whose answers feed answer_mae
	MAEBatch int // leading scorebatch_jaccard pool requests whose pairs feed answer_mae
}

// fullSizes is the benchmark's input shape. The base graph (~46k
// vertices, ~92 MiB of registers) keeps a boot under a second and the
// server plus the client's reference engine well under 1 GiB; the mixed
// rates load a 2-vCPU host to about half of its ingest capacity.
var fullSizes = sizes{
	Scale: 16, BaseEdges: 1 << 20,
	IngestFrame: 4096, IngestEPS: 300_000,
	TopKCands: 1000, TopKK: 10, Pool: 2048,
	BatchSources: 64, BatchCands: 16, BatchHot: 4096,
	MixedIngestRate: 80, MixedFrame: 512, MixedQueryRate: 50, MixedSources: 16, MixedCands: 8,
	Conns: 2, Boots: 5, MAETopK: 200, MAEBatch: 2,
}

// serverSpec is the engine lpserver builds with its shipped defaults
// (-mode concurrent -k 128 -shards 8 -seed 42, distinct degrees,
// -ingest-workers 0). The base snapshot is written from it, so the
// booted server loads exactly the image its own flags would produce.
func serverSpec() linkpred.EngineSpec {
	return linkpred.EngineSpec{
		Mode:   linkpred.ModeConcurrent,
		Config: linkpred.Config{K: 128, Seed: 42, DistinctDegrees: true},
		Shards: 8,
	}
}

// inputs is everything one run sends, derived from the seed alone.
type inputs struct {
	base      []stream.Edge // the base graph, in stream order
	stream    []stream.Edge // the edges that follow it: ingest and mixed frames
	vertices  []uint64      // distinct base vertices, ascending
	hot       []uint64      // the highest-arrival-degree base vertices
	baseEdges int64         // edges the base snapshot holds, once written
	rnd       *rng.Xoshiro256
}

// makeInputs cuts one R-MAT stream (a/b/c/d = .57/.19/.19/.05) into the
// base graph and streamEdges more edges.
func makeInputs(sz sizes, seed uint64, streamEdges int) (*inputs, error) {
	src, err := gen.RMAT(sz.Scale, sz.BaseEdges+streamEdges, .57, .19, .19, .05, seed)
	if err != nil {
		return nil, err
	}
	all, err := stream.Collect(src)
	if err != nil {
		return nil, fmt.Errorf("generate R-MAT stream: %w", err)
	}
	in := &inputs{
		base:   all[:sz.BaseEdges],
		stream: all[sz.BaseEdges:],
		rnd:    rng.NewXoshiro256(rng.Mix64(seed) ^ 0x6c70626e6368),
	}
	deg := make([]int, 1<<sz.Scale)
	for _, e := range in.base {
		deg[e.U]++
		deg[e.V]++
	}
	for v, d := range deg {
		if d > 0 {
			in.vertices = append(in.vertices, uint64(v))
		}
	}
	in.hot = append([]uint64(nil), in.vertices...)
	sort.SliceStable(in.hot, func(i, j int) bool { return deg[in.hot[i]] > deg[in.hot[j]] })
	in.hot = in.hot[:min(sz.BatchHot, len(in.hot))]
	return in, nil
}

// uniform draws a base vertex uniformly.
func (in *inputs) uniform() uint64 { return in.vertices[in.rnd.Intn(len(in.vertices))] }

// degreeBiased draws a base vertex with probability proportional to its
// arrival degree: an endpoint of a uniformly drawn base edge.
func (in *inputs) degreeBiased() uint64 {
	e := in.base[in.rnd.Intn(len(in.base))]
	if in.rnd.Uint64()&1 == 0 {
		return e.U
	}
	return e.V
}

// writeTemplate ingests the base graph into a fresh engine built as
// lpserver builds its own and saves it as the WAL snapshot every boot
// starts from. It returns the engine's edge count.
func writeTemplate(dir string, base []stream.Edge) (int64, error) {
	eng, err := linkpred.NewEngine(serverSpec())
	if err != nil {
		return 0, err
	}
	if pl, ok := linkpred.PipelinerOf(eng); ok {
		defer pl.StopIngestPipeline()
	}
	const batch = 4096
	for i := 0; i < len(base); i += batch {
		eng.ObserveEdges(toEdges(base[i:min(i+batch, len(base))]))
	}
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := wal.WriteSnapshot(nil, dir, uint64(len(base)), eng.Save); err != nil {
		return 0, err
	}
	return eng.NumEdges(), nil
}

// cloneDir gives a server its own copy of the template WAL directory.
// Files are hard-linked: recovery only reads the snapshot, and the WAL
// replaces or removes files rather than rewriting them.
func cloneDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if os.Link(from, to) == nil {
			continue
		}
		data, err := os.ReadFile(from)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// toEdges converts stream edges to the library edge type.
func toEdges(batch []stream.Edge) []linkpred.Edge {
	out := make([]linkpred.Edge, len(batch))
	for i, e := range batch {
		out[i] = linkpred.Edge{U: e.U, V: e.V, T: e.T}
	}
	return out
}

// frames encodes edges as consecutive binary /ingest frames of size
// edges each (the last frame may be shorter).
func frames(edges []stream.Edge, size int) ([][]byte, error) {
	var out [][]byte
	for i := 0; i < len(edges); i += size {
		f, err := wal.EncodeFrame(nil, wal.KindEdge, edges[i:min(i+size, len(edges))])
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// topkReq is one pooled GET /topk request.
type topkReq struct {
	u     uint64
	cands []uint64
	url   string // path and query
}

// topkPool builds the topk_aa pool: source and candidates uniform over
// the base vertices.
func (in *inputs) topkPool(sz sizes) []topkReq {
	pool := make([]topkReq, sz.Pool)
	for i := range pool {
		r := &pool[i]
		r.u = in.uniform()
		r.cands = make([]uint64, sz.TopKCands)
		var b strings.Builder
		fmt.Fprintf(&b, "/topk?u=%d&measure=adamic-adar&k=%d&candidates=", r.u, sz.TopKK)
		for j := range r.cands {
			r.cands[j] = in.uniform()
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(r.cands[j], 10))
		}
		r.url = b.String()
	}
	return pool
}

// batchReq is one pooled POST /scorebatch request.
type batchReq struct {
	pairs [][2]uint64
	body  []byte
}

// newBatchReq encodes a scorebatch body for the given pairs.
func newBatchReq(measure string, pairs [][2]uint64) (batchReq, error) {
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
	return batchReq{pairs: pairs, body: b}, err
}

// batchPool builds n scorebatch requests of sources × cands pairs, with
// sources and candidates drawn by the given functions.
func batchPool(n int, measure string, sources, cands int, src, cand func() uint64) ([]batchReq, error) {
	pool := make([]batchReq, n)
	for i := range pool {
		pairs := make([][2]uint64, 0, sources*cands)
		for s := 0; s < sources; s++ {
			u := src()
			for c := 0; c < cands; c++ {
				pairs = append(pairs, [2]uint64{u, cand()})
			}
		}
		var err error
		if pool[i], err = newBatchReq(measure, pairs); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// hotDraw draws uniformly from the highest-degree base vertices.
func (in *inputs) hotDraw() uint64 { return in.hot[in.rnd.Intn(len(in.hot))] }
