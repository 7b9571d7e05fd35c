// Package monitor profiles a graph stream in constant space: how many
// distinct edges and vertices it carries, how much of it is duplicates,
// and which vertices dominate. It is the operational companion to the
// sketches — before choosing K or a degree mode (DESIGN.md §2.4) you
// want to know the duplicate rate and the tail of the stream, and a
// production ingester wants those numbers continuously.
//
// Two classic summaries are implemented from scratch: a space-saving
// heavy-hitter table (the top-degree vertices) and a k-minimum-values
// distinct counter (distinct edges/vertices under duplication).
package monitor

import (
	"fmt"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

// kmvSize is the size of the two distinct counters (relative error
// ≈ 1/√k ≈ 3%).
const kmvSize = 1024

// StreamMonitor profiles a graph stream in constant space, combining
// distinct counters for vertices and edges (KMV) with the top-degree
// vertices (space-saving).
type StreamMonitor struct {
	edges     int64
	selfLoops int64

	vertices *KMV
	edgeSet  *KMV
	hitters  *SpaceSaving
}

// Config parameterises a StreamMonitor. Zero values select defaults.
type Config struct {
	// HeavyHitters is the number of tracked top-degree vertices
	// (default 64).
	HeavyHitters int
	// Seed drives the hash functions.
	Seed uint64
}

// New returns an empty StreamMonitor.
func New(cfg Config) (*StreamMonitor, error) {
	if cfg.HeavyHitters == 0 {
		cfg.HeavyHitters = 64
	}
	sm := rng.NewSplitMix64(cfg.Seed)
	vertices, err := NewKMV(kmvSize, sm.Uint64())
	if err != nil {
		return nil, err
	}
	edgeSet, err := NewKMV(kmvSize, sm.Uint64())
	if err != nil {
		return nil, err
	}
	hitters, err := NewSpaceSaving(cfg.HeavyHitters)
	if err != nil {
		return nil, err
	}
	return &StreamMonitor{
		vertices: vertices,
		edgeSet:  edgeSet,
		hitters:  hitters,
	}, nil
}

// ProcessEdge folds one stream edge into the profile.
func (m *StreamMonitor) ProcessEdge(e stream.Edge) {
	if e.IsSelfLoop() {
		m.selfLoops++
		return
	}
	m.edges++
	c := e.Canonical()
	// Edge fingerprint: mix the canonical pair into one key.
	key := rng.Mix64(c.U)*0x9e3779b97f4a7c15 + rng.Mix64(c.V)
	m.edgeSet.Add(key)
	m.vertices.Add(e.U)
	m.vertices.Add(e.V)
	m.hitters.Add(e.U)
	m.hitters.Add(e.V)
}

// Report summarises the stream so far.
type Report struct {
	// Edges is the number of non-self-loop edges observed.
	Edges int64
	// SelfLoops counts dropped self-loops.
	SelfLoops int64
	// DistinctEdges estimates the number of distinct undirected edges.
	DistinctEdges float64
	// DistinctVertices estimates the number of distinct vertices.
	DistinctVertices float64
	// DuplicateRate estimates the fraction of arrivals that repeat an
	// earlier edge, in [0, 1].
	DuplicateRate float64
	// MeanDegree estimates 2·DistinctEdges / DistinctVertices.
	MeanDegree float64
	// TopVertices are the highest-arrival-degree vertices.
	TopVertices []Entry
}

// Report returns the current profile. topK selects how many heavy
// hitters to include.
func (m *StreamMonitor) Report(topK int) Report {
	r := Report{
		Edges:            m.edges,
		SelfLoops:        m.selfLoops,
		DistinctEdges:    m.edgeSet.Estimate(),
		DistinctVertices: m.vertices.Estimate(),
		TopVertices:      m.hitters.Top(topK),
	}
	if m.edges > 0 {
		dup := 1 - r.DistinctEdges/float64(m.edges)
		if dup < 0 {
			dup = 0
		}
		r.DuplicateRate = dup
	}
	if r.DistinctVertices > 0 {
		r.MeanDegree = 2 * r.DistinctEdges / r.DistinctVertices
	}
	return r
}

// MemoryBytes returns the total payload memory of the profile.
func (m *StreamMonitor) MemoryBytes() int {
	return m.vertices.MemoryBytes() + m.edgeSet.MemoryBytes() + m.hitters.MemoryBytes()
}

// String renders a compact one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("edges=%d distinct=%.0f vertices=%.0f dup=%.1f%% mean_deg=%.1f self_loops=%d",
		r.Edges, r.DistinctEdges, r.DistinctVertices, 100*r.DuplicateRate, r.MeanDegree, r.SelfLoops)
}
