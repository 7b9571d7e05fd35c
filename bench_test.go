// bench_test.go maps every table and figure of the reconstructed
// evaluation suite (DESIGN.md §6) to a testing.B target, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in quick mode, and
//
//	go run ./cmd/lpbench -exp all
//
// regenerates it at full scale with the tables printed. Micro-benchmarks
// for the per-edge and per-query hot paths follow the experiment
// benches.
package linkpred_test

import (
	"fmt"
	"io"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/baseline"
	"linkpred/internal/bench"
	"linkpred/internal/gen"
	"linkpred/internal/stream"
)

// runExperiment executes one registered experiment b.N times in quick
// mode. The first iteration's table is written to the benchmark log via
// b.Log when -v is set.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.RunConfig{Quick: true, Seed: 42}
	for i := 0; i < b.N; i++ {
		table, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := table.WriteASCII(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE1DatasetStats(b *testing.B)     { runExperiment(b, "e1") }
func BenchmarkE2AccuracyVsK(b *testing.B)      { runExperiment(b, "e2") }
func BenchmarkE3AccuracyDatasets(b *testing.B) { runExperiment(b, "e3") }
func BenchmarkE4RankingQuality(b *testing.B)   { runExperiment(b, "e4") }
func BenchmarkE5TemporalAUC(b *testing.B)      { runExperiment(b, "e5") }
func BenchmarkE6Throughput(b *testing.B)       { runExperiment(b, "e6") }
func BenchmarkE7AAAblation(b *testing.B)       { runExperiment(b, "e7") }
func BenchmarkE8Memory(b *testing.B)           { runExperiment(b, "e8") }
func BenchmarkE9Progression(b *testing.B)      { runExperiment(b, "e9") }
func BenchmarkE10QueryLatency(b *testing.B)    { runExperiment(b, "e10") }
func BenchmarkE20IngestScaling(b *testing.B)   { runExperiment(b, "e20") }

// loadEdges materialises a small BA stream once per benchmark process.
func loadEdges(b *testing.B) []stream.Edge {
	b.Helper()
	src, err := gen.BarabasiAlbert(20_000, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	edges, err := stream.Collect(src)
	if err != nil {
		b.Fatal(err)
	}
	return edges
}

// BenchmarkObserve measures the per-edge ingest cost of the sketch at
// several register counts — the paper's constant-time-per-edge claim.
func BenchmarkObserve(b *testing.B) {
	edges := loadEdges(b)
	for _, k := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p, err := linkpred.New(linkpred.Config{K: k, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				p.Observe(e.U, e.V)
			}
		})
	}
}

// BenchmarkObserveBaselines measures the per-edge cost of the comparison
// systems on the same stream.
func BenchmarkObserveBaselines(b *testing.B) {
	edges := loadEdges(b)
	b.Run("exact", func(b *testing.B) {
		sys := baseline.NewExact()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ProcessEdge(edges[i%len(edges)])
		}
	})
	b.Run("reservoir", func(b *testing.B) {
		sys, err := baseline.NewReservoir(10_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ProcessEdge(edges[i%len(edges)])
		}
	})
}

// BenchmarkQuery measures per-query latency of each estimator.
func BenchmarkQuery(b *testing.B) {
	edges := loadEdges(b)
	for _, k := range []int{64, 256} {
		p, err := linkpred.New(linkpred.Config{K: k, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range edges {
			p.Observe(e.U, e.V)
		}
		b.Run(fmt.Sprintf("jaccard/k=%d", k), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += p.Jaccard(uint64(i%1000), uint64((i+7)%1000))
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("common-neighbors/k=%d", k), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += p.CommonNeighbors(uint64(i%1000), uint64((i+7)%1000))
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("adamic-adar/k=%d", k), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += p.AdamicAdar(uint64(i%1000), uint64((i+7)%1000))
			}
			_ = sink
		})
	}
}

// BenchmarkTopK measures candidate ranking over a 1000-vertex pool.
func BenchmarkTopK(b *testing.B) {
	edges := loadEdges(b)
	p, err := linkpred.New(linkpred.Config{K: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range edges {
		p.Observe(e.U, e.V)
	}
	candidates := make([]uint64, 1000)
	for i := range candidates {
		candidates[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.TopK(linkpred.AdamicAdar, uint64(i%100), candidates, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11HashAblation(b *testing.B)     { runExperiment(b, "e11") }
func BenchmarkE12DuplicateDegrees(b *testing.B) { runExperiment(b, "e12") }
func BenchmarkE13WindowDrift(b *testing.B)      { runExperiment(b, "e13") }

func BenchmarkE15RecommenderQuality(b *testing.B) { runExperiment(b, "e15") }

func BenchmarkE16DirectedAccuracy(b *testing.B) { runExperiment(b, "e16") }

func BenchmarkE17Triangles(b *testing.B) { runExperiment(b, "e17") }

func BenchmarkE18StreamProfiling(b *testing.B) { runExperiment(b, "e18") }

func BenchmarkE19LSHSimilarity(b *testing.B) { runExperiment(b, "e19") }
