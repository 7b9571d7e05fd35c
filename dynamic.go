package linkpred

import (
	"fmt"
	"io"

	"linkpred/internal/core"
)

// Dynamic is the fully-dynamic streaming link predictor: the only mode
// whose sketches support edge deletion. Each register keeps a small
// recovery buffer (the `depth` smallest hashes it has seen and not yet
// retracted), so deleting an edge re-exposes the next-smallest hash
// instead of leaving the register permanently wrong. When a register's
// buffer underflows — deletions drained it while arrivals had been
// discarded past its capacity — the register is marked degraded
// (sticky, see DegradedRegisters) rather than ever serving a silently
// wrong value. See DESIGN.md §2.10 for the layout and the
// degraded-rebuild contract.
//
// All six measures work unchanged; queries cost the same O(K) as the
// single mode. Space is roughly depth× the insert-only store's
// register payload. Not safe for concurrent use (wrap in Synchronized,
// as NewEngine does).
type Dynamic struct {
	facade[*core.DynamicStore]
}

// NewDynamic returns an empty deletion-capable predictor. depth is the
// per-register recovery-buffer depth (0 selects the default, 8); a
// register survives roughly depth−1 deletions between discarded
// arrivals before degrading. It returns an error if cfg.K < 1, depth
// is out of range, or cfg enables the insert-only extras (biased
// sketches, triangle tracking).
func NewDynamic(cfg Config, depth int) (*Dynamic, error) {
	store, err := core.NewDynamicStore(coreConfig(cfg), depth)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &Dynamic{facade[*core.DynamicStore]{store: store, cfg: cfg}}, nil
}

// LoadDynamic restores a predictor saved with (*Dynamic).Save.
func LoadDynamic(r io.Reader) (*Dynamic, error) {
	store, err := core.LoadDynamicStore(r)
	if err != nil {
		return nil, fmt.Errorf("linkpred: %w", err)
	}
	return &Dynamic{facade[*core.DynamicStore]{store: store, cfg: configFromCore(store.Config())}}, nil
}

// DeleteEdge retracts one prior arrival of the edge (u, v) from both
// endpoint sketches, reporting whether it was applied: deletes of
// never-observed (or already fully retracted) edges are exact no-ops
// returning false.
func (d *Dynamic) DeleteEdge(e Edge) bool {
	return d.store.DeleteEdge(e)
}

// DeleteEdges retracts a batch of edges in order, returning how many
// were applied.
func (d *Dynamic) DeleteEdges(edges []Edge) int {
	return d.store.DeleteEdges(edges)
}

// DegradedRegisters returns the number of registers whose recovery
// buffer has underflowed: their values are best-known but no longer
// provably identical to a sketch that never saw the deleted edges. The
// count is sticky; it resets only when the store is rebuilt from the
// source of truth (replay the live edge set into a fresh predictor).
func (d *Dynamic) DegradedRegisters() int64 { return d.store.DegradedRegisters() }

// Degraded reports whether any register has degraded.
func (d *Dynamic) Degraded() bool { return d.store.Degraded() }

// RecoveryDepth returns the per-register recovery-buffer depth.
func (d *Dynamic) RecoveryDepth() int { return d.store.RecoveryDepth() }

// EdgeDeleter is the capability interface of engines that support edge
// deletion (currently the dynamic mode). Obtain one through DeleterOf,
// which preserves the locking discipline of Synchronized engines.
type EdgeDeleter interface {
	// DeleteEdge retracts one prior arrival of e, reporting whether the
	// delete was applied (false: never observed, or already retracted).
	DeleteEdge(e Edge) bool
	// DeleteEdges retracts a batch in order, returning how many applied.
	DeleteEdges(edges []Edge) int
}

// Compile-time check: the dynamic predictor is an EdgeDeleter.
var _ EdgeDeleter = (*Dynamic)(nil)

// DeleterOf returns the engine's deletion capability, seeing through
// Synchronized wrappers: deletes on a wrapped engine are serialized
// against queries under the wrapper's write lock, exactly like
// ObserveEdges. ok is false for engines that cannot delete.
func DeleterOf(e Engine) (EdgeDeleter, bool) {
	if s, ok := e.(*Synchronized); ok {
		inner, ok := s.inner.(EdgeDeleter)
		if !ok {
			return nil, false
		}
		return &syncedDeleter{s: s, inner: inner}, true
	}
	d, ok := e.(EdgeDeleter)
	return d, ok
}

// syncedDeleter routes deletes through the Synchronized wrapper's
// write lock.
type syncedDeleter struct {
	s     *Synchronized
	inner EdgeDeleter
}

func (d *syncedDeleter) DeleteEdge(e Edge) bool {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return d.inner.DeleteEdge(e)
}

func (d *syncedDeleter) DeleteEdges(edges []Edge) int {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return d.inner.DeleteEdges(edges)
}

// DegradedRegistersOf returns the engine's sticky degraded-register
// count, seeing through Synchronized wrappers (the read happens under
// the wrapper's read lock). ok is false for engines without the gauge
// (every non-dynamic mode).
func DegradedRegistersOf(e Engine) (n int64, ok bool) {
	if s, ok := e.(*Synchronized); ok {
		d, ok := s.inner.(*Dynamic)
		if !ok {
			return 0, false
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		return d.DegradedRegisters(), true
	}
	if d, ok := e.(*Dynamic); ok {
		return d.DegradedRegisters(), true
	}
	return 0, false
}
