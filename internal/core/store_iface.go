package core

import (
	"io"

	"linkpred/internal/stream"
)

// Store is the mode-agnostic contract every sketch store satisfies: the
// plain SketchStore, the two sharded stores (Sharded, ShardedDirected),
// the single-writer DirectedStore, the windowed store, and the dynamic
// (deletion-capable) store. It covers the full serving surface —
// ingest, all query measures, the stats gauges, and persistence — so
// the root facades and the HTTP server are written once against this
// interface instead of once per store.
//
// Directed stores implement the interface under the directed reading:
// Ingest(e) processes the arc U → V, Estimate(m, u, v) scores the
// candidate arc u → v, Degree is the total (in+out) degree, and
// NumEdges counts arcs. The extra directed surface (OutDegree,
// InDegree) is the DirectedViews capability.
//
// Thread-safety is the store's own contract, not the interface's: the
// sharded stores are safe for concurrent use, the single-writer stores
// (SketchStore, DirectedStore, Windowed, DynamicStore) are not. Callers
// that need a uniform concurrency story wrap single-writer stores in a
// lock (see the root package's Synchronized).
//
// The two batch methods take a done channel for cooperative
// cancellation (cancel.go); nil never cancels. Queries come from each
// store's side hook, assembled in two places: the shard set for the
// sharded stores, the single-writer assembler (querybatch_single.go)
// for the other four.
type Store interface {
	// Config returns the store's (per-shard / per-generation)
	// configuration.
	Config() Config

	// Ingest folds one edge (or arc, on directed stores) into the
	// sketches. Self-loops are ignored.
	Ingest(e stream.Edge)

	// IngestBatch folds a batch of edges (arcs, on directed stores), with
	// the same result as Ingest on each. The sharded stores amortize
	// hashing and locking over the batch (see batch.go); the
	// single-writer stores fold edge by edge. If done has fired before
	// the batch is applied, it returns ErrCanceled and applies nothing;
	// that is its only error.
	IngestBatch(edges []stream.Edge, done <-chan struct{}) error

	// Estimate returns the estimate of measure m for the pair (u, v) —
	// the candidate arc u → v on directed stores. Unknown vertices have
	// empty neighborhoods, for which every measure is 0. The only error
	// is an invalid measure.
	Estimate(m QueryMeasure, u, v uint64) (float64, error)

	// ScoreBatch scores every candidate against u under measure m —
	// every candidate arc u → c on directed stores — into out (grown as
	// needed), aligned with candidates. Scores are bit-identical to
	// per-pair Estimate calls on a quiescent store. Errors are an
	// invalid measure and ErrCanceled, after which out is unspecified.
	ScoreBatch(m QueryMeasure, u uint64, candidates []uint64, out []float64, done <-chan struct{}) ([]float64, error)

	// Degree returns the degree estimate of u under the store's degree
	// mode (total in+out degree on directed stores; windowed KMV
	// distinct count on the windowed store).
	Degree(u uint64) float64

	// Knows reports whether u has appeared in the stream (within the
	// live window, on the windowed store).
	Knows(u uint64) bool

	// NumVertices returns the number of distinct vertices seen.
	NumVertices() int

	// NumEdges returns the number of (non-self-loop) edges or arcs
	// processed, counting duplicates (currently held, on the windowed
	// store).
	NumEdges() int64

	// MemoryBytes returns the store's estimated payload memory.
	MemoryBytes() int

	// Reserve pre-sizes the store's vertex maps and register arenas for
	// n expected vertices — a sizing hint that avoids incremental grow
	// copies during bulk ingest. It never shrinks and is safe to skip.
	Reserve(n int)

	// TierOccupancy returns the live vertex count per register tier, or
	// nil on a uniform store (Config.Tiers unset).
	TierOccupancy() []int

	// Save writes the store's binary image. Each store type has its own
	// magic header; LoadAny re-opens any of them.
	Save(w io.Writer) error
}

// Windower is the capability of time-windowed stores.
type Windower interface {
	// Window returns the covered span of stream time.
	Window() int64
	// Rotations returns how many generation rotations have occurred.
	Rotations() int64
}

// DirectedViews is the capability of directed stores: the two
// side-degree views that a total Degree cannot express.
type DirectedViews interface {
	OutDegree(u uint64) float64
	InDegree(u uint64) float64
}

// Compile-time checks: all six stores satisfy Store, and each
// advertised capability holds where claimed.
var (
	_ Store = (*SketchStore)(nil)
	_ Store = (*Sharded)(nil)
	_ Store = (*DirectedStore)(nil)
	_ Store = (*ShardedDirected)(nil)
	_ Store = (*Windowed)(nil)
	_ Store = (*DynamicStore)(nil)

	_ Windower      = (*Windowed)(nil)
	_ DirectedViews = (*DirectedStore)(nil)
	_ DirectedViews = (*ShardedDirected)(nil)
)

// ---- Interface adapters ----
//
// The methods below exist only to satisfy Store on types whose native
// vocabulary differs (ProcessEdge vs ProcessArc, NumEdges vs NumArcs).
// They are thin aliases, not new behavior.

// ingestEach is IngestBatch on a single-writer store, which has no lock
// to amortize: done is checked once, on entry, and the batch then folds
// edge by edge through fold.
func ingestEach(edges []stream.Edge, done <-chan struct{}, fold func(stream.Edge)) error {
	if canceled(done) {
		return ErrCanceled
	}
	for _, e := range edges {
		fold(e)
	}
	return nil
}

// Ingest folds one edge into the store (alias of ProcessEdge).
func (s *SketchStore) Ingest(e stream.Edge) { s.ProcessEdge(e) }

// IngestBatch folds a batch of edges in order (see ingestEach).
func (s *SketchStore) IngestBatch(edges []stream.Edge, done <-chan struct{}) error {
	return ingestEach(edges, done, s.ProcessEdge)
}

// Ingest folds one arc into the store (alias of ProcessArc).
func (s *DirectedStore) Ingest(e stream.Edge) { s.ProcessArc(e) }

// IngestBatch folds a batch of arcs in order (see ingestEach).
func (s *DirectedStore) IngestBatch(arcs []stream.Edge, done <-chan struct{}) error {
	return ingestEach(arcs, done, s.ProcessArc)
}

// Degree returns the total (in+out) degree estimate of u — the
// undirected view required by Store; the directed sides stay available
// through OutDegree/InDegree (DirectedViews).
func (s *DirectedStore) Degree(u uint64) float64 {
	return s.OutDegree(u) + s.InDegree(u)
}

// NumEdges returns the number of arcs processed (alias of NumArcs).
func (s *DirectedStore) NumEdges() int64 { return s.NumArcs() }

// Ingest folds one edge into the window (alias of ProcessEdge).
func (w *Windowed) Ingest(e stream.Edge) { w.ProcessEdge(e) }

// IngestBatch folds a batch of edges in order (see ingestEach).
func (w *Windowed) IngestBatch(edges []stream.Edge, done <-chan struct{}) error {
	return ingestEach(edges, done, w.ProcessEdge)
}

// NumVertices returns the number of distinct vertices currently live in
// the window: the size of the union of the generations' vertex sets (a
// vertex present in several generations counts once). Each vertex is
// counted in the first generation that holds it, so a /stats scrape
// allocates nothing and rotation keeps no count to maintain.
func (w *Windowed) NumVertices() int {
	n := 0
	for i, g := range w.gens {
	vertices:
		for u := range g.vertices {
			for _, earlier := range w.gens[:i] {
				if _, ok := earlier.vertices[u]; ok {
					continue vertices
				}
			}
			n++
		}
	}
	return n
}
