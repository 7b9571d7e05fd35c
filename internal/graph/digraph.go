package graph

import "sort"

// DiGraph is a directed graph stored as out- and in-adjacency sets. It
// is the exact substrate for directed link prediction (follows,
// citations, payments), mirroring Graph for the undirected case.
// Duplicate arcs and self-loops are ignored.
type DiGraph struct {
	out      map[uint64]map[uint64]struct{}
	in       map[uint64]map[uint64]struct{}
	arcCount int
}

// NewDi returns an empty directed graph.
func NewDi() *DiGraph {
	return &DiGraph{
		out: make(map[uint64]map[uint64]struct{}),
		in:  make(map[uint64]map[uint64]struct{}),
	}
}

// AddArc inserts the arc u → v, reporting whether it was new (false for
// duplicates and self-loops).
func (g *DiGraph) AddArc(u, v uint64) bool {
	if u == v {
		return false
	}
	if _, ok := g.out[u][v]; ok {
		return false
	}
	set := g.out[u]
	if set == nil {
		set = make(map[uint64]struct{})
		g.out[u] = set
	}
	set[v] = struct{}{}
	set = g.in[v]
	if set == nil {
		set = make(map[uint64]struct{})
		g.in[v] = set
	}
	set[u] = struct{}{}
	g.arcCount++
	return true
}

// HasArc reports whether u → v is present.
func (g *DiGraph) HasArc(u, v uint64) bool {
	_, ok := g.out[u][v]
	return ok
}

// OutDegree returns |N_out(u)|.
func (g *DiGraph) OutDegree(u uint64) int { return len(g.out[u]) }

// InDegree returns |N_in(u)|.
func (g *DiGraph) InDegree(u uint64) int { return len(g.in[u]) }

// TotalDegree returns |N_out(u)| + |N_in(u)|.
func (g *DiGraph) TotalDegree(u uint64) int { return len(g.out[u]) + len(g.in[u]) }

// NumArcs returns the number of distinct arcs.
func (g *DiGraph) NumArcs() int { return g.arcCount }

// NumVertices returns the number of vertices with at least one incident
// arc (either direction).
func (g *DiGraph) NumVertices() int {
	seen := make(map[uint64]struct{}, len(g.out)+len(g.in))
	for u := range g.out {
		seen[u] = struct{}{}
	}
	for u := range g.in {
		seen[u] = struct{}{}
	}
	return len(seen)
}

// OutNeighbors calls fn for each v with u → v, stopping early if fn
// returns false.
func (g *DiGraph) OutNeighbors(u uint64, fn func(v uint64) bool) {
	for v := range g.out[u] {
		if !fn(v) {
			return
		}
	}
}

// ThroughNeighbors returns, sorted, the vertices w forming a directed
// two-path u → w → v — the directed analogue of common neighbors for
// scoring the candidate arc u → v.
func (g *DiGraph) ThroughNeighbors(u, v uint64) []uint64 {
	a, b := g.out[u], g.in[v]
	if len(a) > len(b) {
		// Intersect over the smaller set; membership test on the larger.
		var out []uint64
		for w := range b {
			if _, ok := a[w]; ok {
				out = append(out, w)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	var out []uint64
	for w := range a {
		if _, ok := b[w]; ok {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CountThrough returns |N_out(u) ∩ N_in(v)| without materialising it.
func (g *DiGraph) CountThrough(u, v uint64) int {
	a, b := g.out[u], g.in[v]
	if len(a) > len(b) {
		n := 0
		for w := range b {
			if _, ok := a[w]; ok {
				n++
			}
		}
		return n
	}
	n := 0
	for w := range a {
		if _, ok := b[w]; ok {
			n++
		}
	}
	return n
}
