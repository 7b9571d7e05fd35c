// Package graph provides an exact in-memory adjacency-set graph.
//
// It is the reference substrate of the repository: the exact
// link-prediction baseline (internal/exact, internal/baseline) computes
// ground-truth Jaccard / common-neighbor / Adamic–Adar values from it, and
// the evaluation harness compares every sketch estimate against those
// values. It stores the full neighbor set of every vertex, so its memory
// grows with the number of distinct edges — exactly the cost the paper's
// sketches avoid.
//
// Vertices are opaque uint64 identifiers; they do not need to be dense or
// pre-declared. Edges are deduplicated (the neighbor sets are sets) and
// self-loops are ignored, matching the semantics of the streaming
// sketches.
package graph

import "sort"

// Graph is an undirected graph stored as adjacency sets.
// The zero value is not usable; call New.
type Graph struct {
	adj       map[uint64]map[uint64]struct{}
	edgeCount int
}

// New returns an empty undirected graph.
func New() *Graph {
	return &Graph{adj: make(map[uint64]map[uint64]struct{})}
}

// AddEdge inserts the undirected edge {u, v}. It reports whether the edge
// was new (false for duplicates and self-loops, which are ignored).
func (g *Graph) AddEdge(u, v uint64) bool {
	if u == v {
		return false
	}
	if _, ok := g.adj[u][v]; ok {
		return false
	}
	g.link(u, v)
	g.link(v, u)
	g.edgeCount++
	return true
}

func (g *Graph) link(u, v uint64) {
	set := g.adj[u]
	if set == nil {
		set = make(map[uint64]struct{})
		g.adj[u] = set
	}
	set[v] = struct{}{}
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it was
// present. Vertices left with no incident edges are dropped from the
// vertex set.
func (g *Graph) RemoveEdge(u, v uint64) bool {
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	if len(g.adj[u]) == 0 {
		delete(g.adj, u)
	}
	if len(g.adj[v]) == 0 {
		delete(g.adj, v)
	}
	g.edgeCount--
	return true
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v uint64) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the number of distinct neighbors of u (0 if u is
// unknown).
func (g *Graph) Degree(u uint64) int { return len(g.adj[u]) }

// NumVertices returns the number of vertices with at least one incident
// edge.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of distinct undirected edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// Neighbors calls fn for each neighbor of u in unspecified order, stopping
// early if fn returns false.
func (g *Graph) Neighbors(u uint64, fn func(v uint64) bool) {
	for v := range g.adj[u] {
		if !fn(v) {
			return
		}
	}
}

// Vertices calls fn for each vertex with at least one incident edge, in
// unspecified order, stopping early if fn returns false.
func (g *Graph) Vertices(fn func(u uint64) bool) {
	for u := range g.adj {
		if !fn(u) {
			return
		}
	}
}

// VertexSlice returns all vertices as a sorted slice.
func (g *Graph) VertexSlice() []uint64 {
	out := make([]uint64, 0, len(g.adj))
	for u := range g.adj {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CommonNeighbors returns the number of common neighbors of u and v,
// iterating over the smaller neighbor set.
func (g *Graph) CommonNeighbors(u, v uint64) int {
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for w := range a {
		if _, ok := b[w]; ok {
			n++
		}
	}
	return n
}

// CommonNeighborSlice returns the common neighbors of u and v as a sorted
// slice.
func (g *Graph) CommonNeighborSlice(u, v uint64) []uint64 {
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
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

// TwoHopNeighbors returns the set of vertices exactly reachable within two
// hops of u, excluding u itself and u's direct neighbors — i.e. the
// standard candidate set for link prediction (vertices sharing at least
// one common neighbor with u but not yet linked). The result is sorted.
func (g *Graph) TwoHopNeighbors(u uint64) []uint64 {
	direct := g.adj[u]
	seen := make(map[uint64]struct{})
	for v := range direct {
		for w := range g.adj[v] {
			if w == u {
				continue
			}
			if _, ok := direct[w]; ok {
				continue
			}
			seen[w] = struct{}{}
		}
	}
	out := make([]uint64, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clustering returns the local clustering coefficient of u: the fraction
// of pairs of u's neighbors that are themselves linked. It returns 0 for
// vertices of degree < 2.
func (g *Graph) Clustering(u uint64) float64 {
	nbrs := g.adj[u]
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	links := 0
	for v := range nbrs {
		for w := range nbrs {
			if v < w && g.HasEdge(v, w) {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(d*(d-1))
}

// Triangles returns the exact number of triangles in the graph: the sum
// over edges {u, v} of |N(u) ∩ N(v)|, divided by 3 (each triangle is
// counted once per edge).
func (g *Graph) Triangles() int64 {
	var sum int64
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u < v {
				sum += int64(g.CommonNeighbors(u, v))
			}
		}
	}
	return sum / 3
}

// MemoryBytes returns an estimate of the resident size of the adjacency
// structure in bytes. It counts map headers, buckets and entries with the
// standard rough per-entry overhead of Go maps (~48 bytes per uint64→set
// entry plus ~16 bytes per neighbor entry). The estimate is used by the
// E8 memory-footprint experiment to compare against the sketches' exact
// accounting; it needs to be proportionally right, not byte-exact.
func (g *Graph) MemoryBytes() int {
	const (
		vertexOverhead   = 48 // outer map entry + inner map header
		neighborOverhead = 16 // inner map entry for one uint64 key
	)
	total := vertexOverhead * len(g.adj)
	for _, set := range g.adj {
		total += neighborOverhead * len(set)
	}
	return total
}
