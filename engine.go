package linkpred

import (
	"fmt"
	"io"
	"sync"

	"linkpred/internal/core"
)

// Engine is the mode-agnostic serving surface: the method set shared by
// every predictor type (Predictor, Concurrent, Directed,
// ConcurrentDirected, Windowed) and by Synchronized wrappers around
// them. Serving layers — the HTTP server, the CLIs — are written once
// against Engine and work with any store mode; NewEngine and
// LoadAnyEngine construct one by mode name or from a saved image.
//
// On directed engines, edges are read as arcs U → V and pair queries
// score the candidate arc u → v.
type Engine interface {
	Config() Config
	ObserveEdge(e Edge)
	ObserveEdges(edges []Edge)
	Score(m Measure, u, v uint64) (float64, error)
	ScoreBatch(m Measure, u uint64, candidates []uint64) ([]float64, error)
	TopK(m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error)
	Degree(u uint64) float64
	Seen(u uint64) bool
	NumVertices() int
	NumEdges() int64
	MemoryBytes() int
	// Reserve pre-sizes vertex maps and register arenas for n expected
	// vertices (sizing hint; see EngineSpec.ExpectedVertices).
	Reserve(n int)
	// TierOccupancy returns live vertices per register tier, or nil on
	// uniform engines (Config.Tiers unset).
	TierOccupancy() []int
	Save(w io.Writer) error
}

// Compile-time checks: every facade satisfies Engine.
var (
	_ Engine = (*Predictor)(nil)
	_ Engine = (*Concurrent)(nil)
	_ Engine = (*Directed)(nil)
	_ Engine = (*ConcurrentDirected)(nil)
	_ Engine = (*Windowed)(nil)
	_ Engine = (*Dynamic)(nil)
	_ Engine = (*Synchronized)(nil)
)

// Synchronized wraps an Engine with a read-write mutex so single-writer
// predictors (Predictor, Directed, Windowed) can serve concurrent
// traffic: ObserveEdge/ObserveEdges take the write lock; queries and
// Save take the read lock (queries on every store are safe to run
// concurrently with each other). Wrapping an already-thread-safe engine
// is harmless but adds a pointless lock; ModeOf and Unwrap see through
// the wrapper.
type Synchronized struct {
	mu    sync.RWMutex
	inner Engine
}

// Synchronize wraps e so that writes are serialized against queries.
func Synchronize(e Engine) *Synchronized { return &Synchronized{inner: e} }

// Unwrap returns the wrapped Engine. Callers that need capability
// methods (OutDegree, Window, ...) type-switch on the result — and must
// then respect the wrapper's locking if they call mutating methods.
func (s *Synchronized) Unwrap() Engine { return s.inner }

// Config returns the wrapped engine's configuration.
func (s *Synchronized) Config() Config { return s.inner.Config() }

// ObserveEdge folds one edge under the write lock.
func (s *Synchronized) ObserveEdge(e Edge) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.ObserveEdge(e)
}

// ObserveEdges folds a batch of edges under one write lock acquisition.
func (s *Synchronized) ObserveEdges(edges []Edge) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.ObserveEdges(edges)
}

// Score returns the wrapped engine's estimate under the read lock.
func (s *Synchronized) Score(m Measure, u, v uint64) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Score(m, u, v)
}

// ScoreBatch scores a batch under one read lock acquisition.
func (s *Synchronized) ScoreBatch(m Measure, u uint64, candidates []uint64) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.ScoreBatch(m, u, candidates)
}

// TopK ranks a batch under one read lock acquisition.
func (s *Synchronized) TopK(m Measure, u uint64, candidates []uint64, k int) ([]Candidate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.TopK(m, u, candidates, k)
}

// Degree returns the degree estimate under the read lock.
func (s *Synchronized) Degree(u uint64) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Degree(u)
}

// Seen reports vertex presence under the read lock.
func (s *Synchronized) Seen(u uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Seen(u)
}

// NumVertices returns the vertex count under the read lock.
func (s *Synchronized) NumVertices() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.NumVertices()
}

// NumEdges returns the edge count under the read lock.
func (s *Synchronized) NumEdges() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.NumEdges()
}

// MemoryBytes returns the payload memory under the read lock.
func (s *Synchronized) MemoryBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.MemoryBytes()
}

// Reserve pre-sizes the wrapped engine under the write lock.
func (s *Synchronized) Reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Reserve(n)
}

// TierOccupancy returns the wrapped engine's per-tier vertex counts
// under the read lock (nil on uniform engines).
func (s *Synchronized) TierOccupancy() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.TierOccupancy()
}

// Save snapshots the wrapped engine under the read lock (writes are
// excluded for the duration, so the image is consistent).
func (s *Synchronized) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Save(w)
}

// Engine mode names, as accepted by NewEngine and returned by ModeOf.
const (
	ModeSingle             = "single"
	ModeConcurrent         = "concurrent"
	ModeDirected           = "directed"
	ModeConcurrentDirected = "concurrent-directed"
	ModeWindowed           = "windowed"
	ModeDynamic            = "dynamic"
)

// EngineSpec selects a store mode and its parameters for NewEngine.
type EngineSpec struct {
	// Mode is one of the Mode* constants. Required.
	Mode string
	// Config parameterises the underlying store.
	Config Config
	// Shards is the shard count for the concurrent modes (default 8, at
	// most 65536).
	Shards int
	// Window and Gens set the windowed mode's geometry. Required when
	// Mode is ModeWindowed.
	Window int64
	Gens   int
	// RecoverDepth is the dynamic mode's per-register recovery-buffer
	// depth (0 selects the default; see NewDynamic).
	RecoverDepth int
	// ExpectedVertices, when > 0, pre-sizes the store's vertex maps and
	// register arenas for that many vertices before any ingest — the
	// bulk-load hint that avoids incremental arena grow copies. Purely
	// a sizing hint: ingest beyond it grows normally.
	ExpectedVertices int
}

// PipelineStats, Pipeliner and AsyncIngester describe a shard-owner
// ingest pipeline that no engine in this module runs: batched ingest
// always applies through the lock-handoff fan-out before ObserveEdges
// returns. They remain so that callers written against them still
// compile; PipelinerOf and AsyncIngesterOf report false for every
// engine NewEngine or LoadAnyEngine returns.
type PipelineStats struct {
	// Stalls counts producer waits on a full queue.
	Stalls int64
	// OwnerParks counts apply goroutines going idle.
	OwnerParks int64
}

// Pipeliner is the capability of an engine with a shard-owner ingest
// pipeline. No engine in this module implements it.
type Pipeliner interface {
	StartIngestPipeline(workers, ringSize int) bool
	StopIngestPipeline()
	IngestPipelineStats() (PipelineStats, bool)
}

// AsyncIngester is the capability of an engine whose batched ingest can
// return before the batch is applied, with FlushIngest as the barrier.
// No engine in this module implements it.
type AsyncIngester interface {
	ObserveEdgesAsync(edges []Edge)
	FlushIngest()
}

// PipelinerOf returns e's pipeline capability, seeing through
// Synchronized wrappers; ok is false for every engine in this module.
func PipelinerOf(e Engine) (Pipeliner, bool) {
	if s, ok := e.(*Synchronized); ok {
		e = s.Unwrap()
	}
	p, ok := e.(Pipeliner)
	return p, ok
}

// AsyncIngesterOf returns e's async-ingest capability, seeing through
// Synchronized wrappers; ok is false for every engine in this module.
func AsyncIngesterOf(e Engine) (AsyncIngester, bool) {
	if s, ok := e.(*Synchronized); ok {
		e = s.Unwrap()
	}
	a, ok := e.(AsyncIngester)
	return a, ok
}

// NewEngine constructs a predictor of the requested mode and returns it
// as an Engine that is always safe for concurrent use: the sharded
// modes are natively thread-safe; the single-writer modes (single,
// directed, windowed) are wrapped in Synchronized. Use the concrete
// constructors (New, NewConcurrent, ...) when you want the raw
// predictor and its capability methods instead.
func NewEngine(spec EngineSpec) (Engine, error) {
	shards := spec.Shards
	if shards <= 0 {
		shards = 8
	}
	var eng Engine
	switch spec.Mode {
	case ModeSingle:
		p, err := New(spec.Config)
		if err != nil {
			return nil, err
		}
		eng = Synchronize(p)
	case ModeConcurrent:
		c, err := NewConcurrent(spec.Config, shards)
		if err != nil {
			return nil, err
		}
		eng = c
	case ModeDirected:
		d, err := NewDirected(spec.Config)
		if err != nil {
			return nil, err
		}
		eng = Synchronize(d)
	case ModeConcurrentDirected:
		c, err := NewConcurrentDirected(spec.Config, shards)
		if err != nil {
			return nil, err
		}
		eng = c
	case ModeWindowed:
		w, err := NewWindowed(spec.Config, spec.Window, spec.Gens)
		if err != nil {
			return nil, err
		}
		eng = Synchronize(w)
	case ModeDynamic:
		d, err := NewDynamic(spec.Config, spec.RecoverDepth)
		if err != nil {
			return nil, err
		}
		eng = Synchronize(d)
	default:
		return nil, fmt.Errorf("linkpred: unknown engine mode %q (want %s, %s, %s, %s, %s, or %s)",
			spec.Mode, ModeSingle, ModeConcurrent, ModeDirected, ModeConcurrentDirected, ModeWindowed, ModeDynamic)
	}
	if spec.ExpectedVertices > 0 {
		eng.Reserve(spec.ExpectedVertices)
	}
	return eng, nil
}

// LoadAnyEngine re-opens a store image of any type — the image's magic
// header selects the store — and returns it with the same concurrency
// wrapping as NewEngine (single-writer modes come back Synchronized).
// A serving process can therefore restore whatever checkpoint it finds
// without knowing which mode wrote it.
func LoadAnyEngine(r io.Reader) (Engine, error) {
	st, err := core.LoadAny(r)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	cfg := configFromCore(st.Config())
	switch s := st.(type) {
	case *core.SketchStore:
		return Synchronize(&Predictor{facade[*core.SketchStore]{store: s, cfg: cfg}}), nil
	case *core.Sharded:
		return &Concurrent{sharded[*core.Sharded]{facade[*core.Sharded]{store: s, cfg: cfg}}}, nil
	case *core.DirectedStore:
		return Synchronize(&Directed{facade[*core.DirectedStore]{store: s, cfg: cfg}}), nil
	case *core.ShardedDirected:
		return &ConcurrentDirected{sharded[*core.ShardedDirected]{facade[*core.ShardedDirected]{store: s, cfg: cfg}}}, nil
	case *core.Windowed:
		cfg.DistinctDegrees = true // windowed mode always uses distinct degrees
		return Synchronize(&Windowed{facade[*core.Windowed]{store: s, cfg: cfg}}), nil
	case *core.DynamicStore:
		return Synchronize(&Dynamic{facade[*core.DynamicStore]{store: s, cfg: cfg}}), nil
	default:
		return nil, fmt.Errorf("linkpred: LoadAny returned unexpected store %T", st)
	}
}

// ModeOf reports the engine's mode name (one of the Mode* constants),
// seeing through Synchronized wrappers. It returns "" for engine types
// this package does not know.
func ModeOf(e Engine) string {
	if s, ok := e.(*Synchronized); ok {
		e = s.Unwrap()
	}
	switch e.(type) {
	case *Predictor:
		return ModeSingle
	case *Concurrent:
		return ModeConcurrent
	case *Directed:
		return ModeDirected
	case *ConcurrentDirected:
		return ModeConcurrentDirected
	case *Windowed:
		return ModeWindowed
	case *Dynamic:
		return ModeDynamic
	default:
		return ""
	}
}

// DirectedEngine reports whether the engine (unwrapped) reads its
// stream as arcs — the bit serving layers need to label endpoints and
// pick the matching WAL record kind.
func DirectedEngine(e Engine) bool {
	mode := ModeOf(e)
	return mode == ModeDirected || mode == ModeConcurrentDirected
}
