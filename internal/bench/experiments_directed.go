package bench

import (
	"fmt"
	"slices"

	"linkpred/internal/core"
	"linkpred/internal/eval"
	"linkpred/internal/exact"
	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func init() {
	register(Experiment{ID: "e16", Title: "E16: directed estimators on a citation stream", Kind: "figure", Run: runE16})
}

// runE16 evaluates the directed extension: accuracy of the directed
// Jaccard / common-neighbor / Adamic–Adar estimators against exact
// directed measures on a preferential citation stream, across sketch
// sizes. Query arcs are citation-style candidates (paper, earlier paper
// reachable by a two-path), the pairs a citation recommender scores.
func runE16(cfg RunConfig) (*Table, error) {
	n, refs := 20_000, 10
	if cfg.Quick {
		n, refs = 2_000, 10
	}
	src, err := gen.Citation(n, refs, 0.3, cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	arcs, err := stream.Collect(src)
	if err != nil {
		return nil, err
	}
	g := graph.NewDi()
	for _, a := range arcs {
		g.AddArc(a.U, a.V)
	}
	// Query arcs: sample a citing paper u, then a uniform midpoint
	// w ∈ N_out(u), then a uniform target v ∈ N_out(w) — guaranteeing
	// u → w → v two-paths — plus 20% uniform pairs for the zero-overlap
	// regime.
	x := rng.NewXoshiro256(cfg.Seed + 42)
	type qpair struct {
		u, v      uint64
		j, cn, aa float64
	}
	nPairs := queryCount(cfg)
	seen := make(map[[2]uint64]struct{}, nPairs)
	var pairs []qpair
	guard := 0
	for len(pairs) < nPairs && guard < 200*nPairs {
		guard++
		u := uint64(x.Intn(n))
		var v uint64
		if len(pairs)%5 == 4 {
			v = uint64(x.Intn(n))
		} else {
			// Walk two hops along citations.
			mid, ok := randomOutNeighbor(g, u, x)
			if ok {
				v, ok = randomOutNeighbor(g, mid, x)
			}
			if !ok {
				continue
			}
		}
		if u == v {
			continue
		}
		key := [2]uint64{u, v}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		pairs = append(pairs, qpair{
			u: u, v: v,
			j:  exact.DirectedJaccard(g, u, v),
			cn: exact.DirectedCommonNeighbors(g, u, v),
			aa: exact.DirectedAdamicAdar(g, u, v),
		})
	}
	t := &Table{
		Title:   fmt.Sprintf("E16: directed estimators, citation stream (%d papers, %d refs each)", n, refs),
		Columns: []string{"k", "jaccard_mae", "cn_rel_err", "aa_rel_err"},
		Notes: []string{
			fmt.Sprintf("%d query arcs (two-path biased); rel-err floors CN>=%d, AA>=%.1f", len(pairs), relErrFloorCN, float64(relErrFloorAA)),
			"expected shape: same ~1/sqrt(k) decay as the undirected estimators (E2)",
		},
	}
	for _, k := range sweepKs(cfg) {
		s, err := core.NewDirectedStore(core.Config{K: k, Seed: cfg.Seed + 43})
		if err != nil {
			return nil, err
		}
		for _, a := range arcs {
			s.ProcessArc(a)
		}
		var j, cn, aa measureErrors
		for _, p := range pairs {
			j.add(s.EstimateJaccard(p.u, p.v), p.j)
			cn.add(s.EstimateCommonNeighbors(p.u, p.v), p.cn)
			aa.add(s.EstimateAdamicAdar(p.u, p.v), p.aa)
		}
		t.AddRow(k,
			eval.MAE(j.est, j.truth),
			eval.MeanRelativeError(cn.est, cn.truth, relErrFloorCN),
			eval.MeanRelativeError(aa.est, aa.truth, relErrFloorAA))
	}
	return t, nil
}

// randomOutNeighbor returns an out-neighbor of u drawn uniformly with x,
// or false if u cites nothing. The neighbors are sorted before the draw,
// so the choice depends on x alone, not on map iteration order.
func randomOutNeighbor(g *graph.DiGraph, u uint64, x *rng.Xoshiro256) (uint64, bool) {
	var outs []uint64
	g.OutNeighbors(u, func(v uint64) bool { outs = append(outs, v); return true })
	if len(outs) == 0 {
		return 0, false
	}
	slices.Sort(outs)
	return outs[x.Intn(len(outs))], true
}
