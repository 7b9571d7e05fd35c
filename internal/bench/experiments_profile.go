package bench

import (
	"fmt"
	"math"
	"sort"

	"linkpred/internal/gen"
	"linkpred/internal/monitor"
	"linkpred/internal/stream"
)

func init() {
	register(Experiment{ID: "e18", Title: "E18: constant-space stream profiling accuracy", Kind: "table", Run: runE18})
}

// runE18 evaluates the stream monitor (internal/monitor) against exact
// ground truth on every raw dataset stand-in: distinct-edge and
// distinct-vertex estimation error, duplicate-rate error, and the
// precision of the reported heavy hitters (fraction of the top-10
// reported vertices that are within the true top-20 by arrival degree).
func runE18(cfg RunConfig) (*Table, error) {
	t := &Table{
		Title:   "E18: stream profiling accuracy (monitor vs exact, raw streams)",
		Columns: []string{"dataset", "hitter_capacity", "distinct_edge_err", "distinct_vertex_err", "dup_rate_err", "hitters_in_top20", "profile_KiB"},
		Notes: []string{
			"KMV 1024 (≈3% expected); space-saving capacity swept",
			"hitters_in_top20: fraction of the 10 reported heavy hitters inside the true top-20 by arrival degree",
			"expected shape: distinct errors ~3% everywhere; hitter precision is guaranteed only for keys above N/capacity arrivals, so it jumps once capacity makes that threshold reachable",
		},
	}
	for _, d := range gen.AllDatasets {
		src, err := gen.Open(d, cfg.scale(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		raw, err := stream.Collect(src)
		if err != nil {
			return nil, err
		}
		for _, hitterCap := range []int{64, 1024} {
			m, err := monitor.New(monitor.Config{Seed: cfg.Seed + 71, HeavyHitters: hitterCap})
			if err != nil {
				return nil, err
			}
			// Exact ground truth: distinct edges/vertices and arrival degrees.
			distinctEdges := make(map[[2]uint64]struct{})
			arrivalDeg := make(map[uint64]int)
			for _, e := range raw {
				m.ProcessEdge(e)
				if e.IsSelfLoop() {
					continue
				}
				c := e.Canonical()
				distinctEdges[[2]uint64{c.U, c.V}] = struct{}{}
				arrivalDeg[e.U]++
				arrivalDeg[e.V]++
			}
			r := m.Report(10)
			trueEdges := float64(len(distinctEdges))
			trueVertices := float64(len(arrivalDeg))
			trueDup := 1 - trueEdges/float64(len(raw))

			type vd struct {
				v uint64
				d int
			}
			byDeg := make([]vd, 0, len(arrivalDeg))
			for v, deg := range arrivalDeg {
				byDeg = append(byDeg, vd{v, deg})
			}
			sort.Slice(byDeg, func(i, j int) bool {
				if byDeg[i].d != byDeg[j].d {
					return byDeg[i].d > byDeg[j].d
				}
				return byDeg[i].v < byDeg[j].v
			})
			top20 := make(map[uint64]bool, 20)
			for _, e := range byDeg[:min(20, len(byDeg))] {
				top20[e.v] = true
			}
			hits := 0
			for _, h := range r.TopVertices {
				if top20[h.Key] {
					hits++
				}
			}
			t.AddRow(string(d), hitterCap,
				fmt.Sprintf("%.4f", math.Abs(r.DistinctEdges-trueEdges)/trueEdges),
				fmt.Sprintf("%.4f", math.Abs(r.DistinctVertices-trueVertices)/trueVertices),
				fmt.Sprintf("%.4f", math.Abs(r.DuplicateRate-trueDup)),
				fmt.Sprintf("%d/10", hits),
				float64(m.MemoryBytes())/1024)
		}
	}
	return t, nil
}
