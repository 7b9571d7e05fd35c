package core

import (
	"fmt"
	"sync"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// benchStream materialises a preferential-attachment stream (the "copy
// model": each new edge's target is either a uniform earlier vertex or
// an endpoint of a random earlier edge), giving the heavy-tailed degree
// distribution of real social streams. Unlike the raw coauthor stream
// it contains almost no duplicate edges, so it lower-bounds the batch
// pipeline's advantage (vertex dedup and lock amortization only).
func benchStream(nEdges int, seed uint64) []stream.Edge {
	x := rng.NewXoshiro256(seed)
	edges := make([]stream.Edge, nEdges)
	for i := range edges {
		u := uint64(i/4 + 1) // vertices arrive over time, ~4 edges each
		var v uint64
		if i == 0 || x.Intn(2) == 0 {
			v = uint64(x.Intn(i/4+1)) + 1
		} else {
			prev := edges[x.Intn(i)]
			if x.Intn(2) == 0 {
				v = prev.U
			} else {
				v = prev.V
			}
		}
		if v == u {
			v = u + 1
		}
		edges[i] = stream.Edge{U: u, V: v, T: int64(i)}
	}
	return edges
}

// coauthorStream materialises the raw (duplicate-preserving) coauthor
// stream — the repo's DBLP stand-in and the E12 ingest workload. Papers
// emit author-pair cliques and prolific pairs recur, so consecutive
// edges share vertices and repeat pairs: the access pattern batch
// ingest's interning and duplicate folding are designed around.
func coauthorStream(b *testing.B, seed uint64) []stream.Edge {
	b.Helper()
	src, err := gen.Open(gen.DatasetCoauthor, gen.ScaleMedium, seed)
	if err != nil {
		b.Fatal(err)
	}
	edges, err := stream.Collect(src)
	if err != nil {
		b.Fatal(err)
	}
	return edges
}

// BenchmarkShardedIngestParallel is the headline ingest benchmark:
// per-edge vs batched ingest at 1/2/4/8 writer goroutines, on the raw
// coauthor stream (duplicate-heavy, the ingest reality) and on the
// near-duplicate-free preferential-attachment stream (the adversarial
// lower bound for batching). One op is one edge, so ns/op is directly
// comparable across modes; on the coauthor stream the batched mode is
// expected to be ≥2× faster (single lock acquisition per shard per
// batch, one vertex-map lookup and one hash vector per distinct vertex
// per batch, duplicate edges folded into arrival multiplicities) even
// before multi-core parallelism helps.
func BenchmarkShardedIngestParallel(b *testing.B) {
	const k = 64
	const nShards = 32
	const batchSize = 256
	streams := []struct {
		name  string
		edges []stream.Edge
	}{
		{"coauthor", coauthorStream(b, 20383)},
		{"pa", benchStream(1<<17, 20383)},
	}
	for _, ss := range streams {
		for _, mode := range []string{"peredge", "batched"} {
			for _, g := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("stream=%s/mode=%s/goroutines=%d", ss.name, mode, g)
				b.Run(name, func(b *testing.B) {
					edges := ss.edges
					s, err := NewSharded(Config{K: k, Seed: 20389}, nShards)
					if err != nil {
						b.Fatal(err)
					}
					per := b.N / g
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < g; w++ {
						n := per
						if w == g-1 {
							n = b.N - per*(g-1)
						}
						wg.Add(1)
						go func(start, n int) {
							defer wg.Done()
							pos := start % len(edges)
							if mode == "peredge" {
								for i := 0; i < n; i++ {
									s.ProcessEdge(edges[pos])
									if pos++; pos == len(edges) {
										pos = 0
									}
								}
								return
							}
							for n > 0 {
								chunk := batchSize
								if chunk > n {
									chunk = n
								}
								if pos+chunk > len(edges) {
									chunk = len(edges) - pos
								}
								s.ProcessEdges(edges[pos : pos+chunk])
								n -= chunk
								if pos += chunk; pos == len(edges) {
									pos = 0
								}
							}
						}(w*per, n)
					}
					wg.Wait()
					b.StopTimer()
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
				})
			}
		}
	}
}

// BenchmarkShardedScoreBatch is the batched query path at E21's query
// shape: one high-degree source against 1000 candidates drawn with
// replacement from the observed vertex set, per measure. One op is one
// ScoreBatch call, so ns/op is the batched ns/query E21 reports.
func BenchmarkShardedScoreBatch(b *testing.B) {
	edges := coauthorStream(b, 42)
	s, err := NewSharded(Config{K: 64, Seed: 42}, 32)
	if err != nil {
		b.Fatal(err)
	}
	deg := make(map[uint64]int)
	for lo := 0; lo < len(edges); lo += 256 {
		hi := min(lo+256, len(edges))
		s.ProcessEdges(edges[lo:hi])
		for _, e := range edges[lo:hi] {
			deg[e.U]++
			deg[e.V]++
		}
	}
	verts := make([]uint64, 0, len(deg))
	var u uint64
	for v, d := range deg {
		verts = append(verts, v)
		if d > deg[u] {
			u = v
		}
	}
	x := rng.NewXoshiro256(7)
	cands := make([]uint64, 1000)
	for i := range cands {
		cands[i] = verts[x.Intn(len(verts))]
	}
	for _, m := range []QueryMeasure{QueryJaccard, QueryCommonNeighbors, QueryAdamicAdar} {
		b.Run(m.String(), func(b *testing.B) {
			var out []float64
			for i := 0; i < b.N; i++ {
				out, err = s.ScoreBatch(m, u, cands, out, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
