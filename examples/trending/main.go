// Trending: sliding-window link prediction on an evolving stream —
// "who is collaborating *now*", not "who ever collaborated".
//
// The stream drifts: community structure is reshuffled partway through
// (research groups dissolve and reform). A full-history predictor keeps
// recommending stale partners; the windowed predictor tracks the current
// structure. This example measures both against the *current-phase*
// ground truth, and shows the same pair scored by each.
//
// Run with: go run ./examples/trending
package main

import (
	"fmt"
	"log"

	linkpred "linkpred"
	"linkpred/internal/exact"
	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func main() {
	const authors = 3000
	phase := func(seed uint64) []stream.Edge {
		src, err := gen.Coauthor(authors, 12_000, 30, seed)
		if err != nil {
			log.Fatal(err)
		}
		es, err := stream.Collect(stream.Dedup(src))
		if err != nil {
			log.Fatal(err)
		}
		return es
	}
	// Phase 2 remaps identities so its communities are unrelated to
	// phase 1's.
	p1 := phase(101)
	p2raw := phase(202)
	remap := func(u uint64) uint64 { return (u*2654435761 + 13) % authors }
	var all []stream.Edge
	ts := int64(0)
	for _, e := range p1 {
		all = append(all, stream.Edge{U: e.U, V: e.V, T: ts})
		ts++
	}
	var p2 []stream.Edge
	for _, e := range p2raw {
		u, v := remap(e.U), remap(e.V)
		if u == v {
			continue
		}
		ne := stream.Edge{U: u, V: v, T: ts}
		all = append(all, ne)
		p2 = append(p2, ne)
		ts++
	}

	full, err := linkpred.New(linkpred.Config{K: 128, Seed: 7, DistinctDegrees: true})
	if err != nil {
		log.Fatal(err)
	}
	windowed, err := linkpred.NewWindowed(linkpred.Config{K: 128, Seed: 7},
		int64(len(p2))*5/4, 4) // window sized to roughly the current phase
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range all {
		full.Observe(e.U, e.V)
		windowed.ObserveEdge(e)
	}

	// Ground truth: the current-phase graph only.
	g := graph.New()
	for _, e := range p2 {
		g.AddEdge(e.U, e.V)
	}
	x := rng.NewXoshiro256(11)
	vs := g.VertexSlice()
	var fullErr, winErr float64
	n := 0
	for n < 1000 {
		u, v := vs[x.Intn(len(vs))], vs[x.Intn(len(vs))]
		if u == v {
			continue
		}
		truth := exact.Jaccard(g, u, v)
		fullErr += abs(full.Jaccard(u, v) - truth)
		winErr += abs(windowed.Jaccard(u, v) - truth)
		n++
	}
	fmt.Printf("stream: %d edges of old structure, then %d of the current structure\n\n", len(p1), len(p2))
	fmt.Printf("Jaccard MAE vs the CURRENT graph over %d pairs:\n", n)
	fmt.Printf("  full-history predictor: %.4f (polluted by stale edges)\n", fullErr/float64(n))
	fmt.Printf("  windowed predictor:     %.4f\n\n", winErr/float64(n))

	// One concrete pair: strongly linked now.
	var bu, bv uint64
	best := 0.0
	for i := 0; i < 3000; i++ {
		u, v := vs[x.Intn(len(vs))], vs[x.Intn(len(vs))]
		if u != v {
			if j := exact.Jaccard(g, u, v); j > best {
				best, bu, bv = j, u, v
			}
		}
	}
	fmt.Printf("example pair (%d, %d): current true Jaccard %.3f\n", bu, bv, best)
	fmt.Printf("  full-history estimate: %.3f\n", full.Jaccard(bu, bv))
	fmt.Printf("  windowed estimate:     %.3f\n", windowed.Jaccard(bu, bv))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
