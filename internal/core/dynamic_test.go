package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"linkpred/internal/stream"
)

var dynMeasures = []QueryMeasure{
	QueryJaccard, QueryCommonNeighbors, QueryAdamicAdar,
	QueryResourceAllocation, QueryPreferentialAttachment, QueryCosine,
}

func dynRandomEdges(r *rand.Rand, n int, vertices uint64) []stream.Edge {
	edges := make([]stream.Edge, 0, n)
	for len(edges) < n {
		u := r.Uint64() % vertices
		v := r.Uint64() % vertices
		if u == v {
			continue
		}
		edges = append(edges, stream.Edge{U: u, V: v, T: int64(len(edges))})
	}
	return edges
}

// TestDynamicStructSizes pins the MemoryBytes charges to the real
// struct sizes, so a field added to dynEntry or dynRegMeta cannot
// silently undercount the gauges.
func TestDynamicStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(dynEntry{}); got != dynEntryBytes {
		t.Fatalf("dynEntry is %d bytes, MemoryBytes charges %d", got, dynEntryBytes)
	}
	if got := unsafe.Sizeof(dynRegMeta{}); got != dynRegMetaBytes {
		t.Fatalf("dynRegMeta is %d bytes, MemoryBytes charges %d", got, dynRegMetaBytes)
	}
}

// TestDynamicInsertOnlyMatchesSketchStore: on an insert-only stream the
// dynamic store's registers are exactly the MinHash registers, so every
// estimate must be bit-identical to the insert-only SketchStore under
// the same configuration.
func TestDynamicInsertOnlyMatchesSketchStore(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		cfg := Config{K: 32, Seed: 7, Degrees: degrees}
		ss, err := NewSketchStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewDynamicStore(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(11))
		edges := dynRandomEdges(r, 2000, 150)
		for _, e := range edges {
			ss.ProcessEdge(e)
			ds.ProcessEdge(e)
		}
		if ss.NumEdges() != ds.NumEdges() || ss.NumVertices() != ds.NumVertices() {
			t.Fatalf("mode %v: counts diverge: edges %d vs %d, vertices %d vs %d",
				degrees, ss.NumEdges(), ds.NumEdges(), ss.NumVertices(), ds.NumVertices())
		}
		for u := uint64(0); u < 150; u++ {
			if a, b := ss.Degree(u), ds.Degree(u); a != b {
				t.Fatalf("mode %v: Degree(%d) = %v (sketch) vs %v (dynamic)", degrees, u, a, b)
			}
		}
		for i := 0; i < 300; i++ {
			u := r.Uint64() % 160 // includes some unknown vertices
			v := r.Uint64() % 160
			for _, m := range dynMeasures {
				a, err := ss.Estimate(m, u, v)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ds.Estimate(m, u, v)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("mode %v measure %v pair (%d,%d): sketch %v, dynamic %v", degrees, m, u, v, a, b)
				}
			}
		}
	}
}

// TestDynamicDeleteRegisterIdentity is the tentpole property: for a
// random interleaving of inserts and deletes over distinct edges, a
// store that saw insert(e)…delete(e) must be register-identical to one
// never fed e — or the divergent register must be flagged degraded,
// never silently wrong.
func TestDynamicDeleteRegisterIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		// Small depth and a dense vertex set force buffer overflow and
		// evictions, so the degraded path is exercised too.
		depth := 1 + trial%4
		cfg := Config{K: 16, Seed: uint64(trial), Degrees: DegreeArrivals}
		a, err := NewDynamicStore(cfg, depth)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewDynamicStore(cfg, depth)
		if err != nil {
			t.Fatal(err)
		}
		// Distinct edges only: refcount symmetry on duplicate streams is
		// covered by TestDynamicDuplicateArrivals.
		seen := make(map[[2]uint64]bool)
		var kept, doomed []stream.Edge
		for len(kept)+len(doomed) < 400 {
			u := r.Uint64() % 40
			v := r.Uint64() % 40
			if u == v {
				continue
			}
			key := [2]uint64{min(u, v), max(u, v)}
			if seen[key] {
				continue
			}
			seen[key] = true
			e := stream.Edge{U: u, V: v, T: int64(len(seen))}
			if r.Intn(2) == 0 {
				doomed = append(doomed, e)
			} else {
				kept = append(kept, e)
			}
		}
		// A sees everything with deletes interleaved after their inserts;
		// B sees only the kept edges, in the same relative order.
		for _, e := range kept {
			a.ProcessEdge(e)
			b.ProcessEdge(e)
		}
		for _, e := range doomed {
			a.ProcessEdge(e)
		}
		r.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
		for _, e := range doomed {
			if !a.DeleteEdge(e) {
				t.Fatalf("trial %d: delete of inserted edge (%d,%d) refused", trial, e.U, e.V)
			}
		}

		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("trial %d: NumEdges %d vs %d", trial, a.NumEdges(), b.NumEdges())
		}
		for id, stB := range b.vertices {
			stA := a.vertices[id]
			if stA == nil {
				t.Fatalf("trial %d: vertex %d lost from store A", trial, id)
			}
			if stA.arrivals != stB.arrivals {
				t.Fatalf("trial %d vertex %d: arrivals %d vs %d", trial, id, stA.arrivals, stB.arrivals)
			}
			for i := 0; i < cfg.K; i++ {
				if stA.meta[i].bad {
					continue // flagged: allowed to diverge, never silently
				}
				av, bv := stA.regVal(i, depth), stB.regVal(i, depth)
				if av != bv {
					t.Fatalf("trial %d vertex %d register %d: %#x (deleted) vs %#x (never fed), not degraded",
						trial, id, i, av, bv)
				}
				if av != emptyRegister && stA.regID(i, depth) != stB.regID(i, depth) {
					t.Fatalf("trial %d vertex %d register %d: argmin %d vs %d, not degraded",
						trial, id, i, stA.regID(i, depth), stB.regID(i, depth))
				}
			}
		}
		// Vertices whose every arrival was deleted must have fully drained
		// buffers and discard counts.
		for id, stA := range a.vertices {
			if b.vertices[id] != nil {
				continue
			}
			if stA.arrivals != 0 {
				t.Fatalf("trial %d: fully-deleted vertex %d has %d arrivals", trial, id, stA.arrivals)
			}
			for i := 0; i < cfg.K; i++ {
				if stA.meta[i].n != 0 || stA.meta[i].lost != 0 {
					t.Fatalf("trial %d: fully-deleted vertex %d register %d not drained (n=%d lost=%d)",
						trial, id, i, stA.meta[i].n, stA.meta[i].lost)
				}
			}
		}
	}
}

// TestDynamicDeleteUnknownNoOp: deletes of never-inserted edges —
// unknown vertices, known vertices never joined by an edge, and
// delete-before-insert — are exact no-ops.
func TestDynamicDeleteUnknownNoOp(t *testing.T) {
	cfg := Config{K: 8, Seed: 3}
	s, err := NewDynamicStore(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.DeleteEdge(stream.Edge{U: 1, V: 2}) {
		t.Fatal("delete on an empty store claimed to apply")
	}
	s.ProcessEdge(stream.Edge{U: 1, V: 2, T: 1})
	s.ProcessEdge(stream.Edge{U: 3, V: 4, T: 2})
	var before bytes.Buffer
	if err := s.Save(&before); err != nil {
		t.Fatal(err)
	}
	for _, e := range []stream.Edge{
		{U: 1, V: 99}, // unknown endpoint
		{U: 1, V: 3},  // both known, edge never inserted
		{U: 5, V: 5},  // self-loop
		{U: 9, V: 10}, // both unknown
	} {
		if s.DeleteEdge(e) {
			t.Fatalf("delete of never-inserted edge (%d,%d) claimed to apply", e.U, e.V)
		}
	}
	var after bytes.Buffer
	if err := s.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("refused deletes mutated store state")
	}
	// Double delete: the second must be refused.
	if !s.DeleteEdge(stream.Edge{U: 1, V: 2}) {
		t.Fatal("delete of a live edge refused")
	}
	if s.DeleteEdge(stream.Edge{U: 1, V: 2}) {
		t.Fatal("second delete of the same edge claimed to apply")
	}
}

// TestDynamicDuplicateArrivals: duplicate inserts are refcounted, so
// one delete undoes one arrival and the register survives until the
// last arrival is retracted.
func TestDynamicDuplicateArrivals(t *testing.T) {
	cfg := Config{K: 8, Seed: 5}
	s, err := NewDynamicStore(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := stream.Edge{U: 1, V: 2, T: 1}
	s.ProcessEdge(e)
	s.ProcessEdge(e)
	if !s.DeleteEdge(e) {
		t.Fatal("first delete refused")
	}
	// One arrival remains: registers must still reflect the neighbor.
	one, err := NewDynamicStore(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	one.ProcessEdge(e)
	for i := 0; i < cfg.K; i++ {
		if got, want := s.vertices[1].regVal(i, 2), one.vertices[1].regVal(i, 2); got != want {
			t.Fatalf("register %d after partial delete: %#x, want %#x", i, got, want)
		}
	}
	if !s.DeleteEdge(e) {
		t.Fatal("second delete refused")
	}
	if s.DeleteEdge(e) {
		t.Fatal("third delete claimed to apply")
	}
	if s.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after full retraction", s.NumEdges())
	}
}

// TestDynamicDegradedSticky: draining a register below capacity while
// it has discarded arrivals must set the sticky degraded flag, and the
// store must keep serving estimates afterwards.
func TestDynamicDegradedSticky(t *testing.T) {
	cfg := Config{K: 4, Seed: 1}
	s, err := NewDynamicStore(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	edges := dynRandomEdges(r, 200, 30)
	for _, e := range edges {
		s.ProcessEdge(e)
	}
	if s.Degraded() {
		t.Fatal("insert-only stream degraded the store")
	}
	for _, e := range edges {
		s.DeleteEdge(e)
	}
	if !s.Degraded() {
		t.Fatal("heavy churn at depth 1 never degraded a register")
	}
	before := s.DegradedRegisters()
	if before <= 0 {
		t.Fatalf("DegradedRegisters = %d, want > 0", before)
	}
	// Degradation is sticky and estimates still work.
	s.ProcessEdge(stream.Edge{U: 1, V: 2, T: 1})
	if s.DegradedRegisters() < before {
		t.Fatal("degraded count decreased without a rebuild")
	}
	if _, err := s.Estimate(QueryJaccard, 1, 2); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicScoreBatchMatchesEstimate: the batched path must be
// bit-identical to per-pair Estimate on a churned store, for every
// measure and both degree modes.
func TestDynamicScoreBatchMatchesEstimate(t *testing.T) {
	for _, degrees := range []DegreeMode{DegreeArrivals, DegreeDistinctKMV} {
		cfg := Config{K: 16, Seed: 13, Degrees: degrees}
		s, err := NewDynamicStore(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(29))
		edges := dynRandomEdges(r, 1500, 100)
		for _, e := range edges {
			s.ProcessEdge(e)
		}
		for _, e := range edges[:500] {
			s.DeleteEdge(e)
		}
		candidates := make([]uint64, 110)
		for i := range candidates {
			candidates[i] = uint64(i) // includes unknown vertices
		}
		var out []float64
		for _, m := range dynMeasures {
			out, err = s.ScoreBatch(m, 5, candidates, out, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range candidates {
				want, err := s.Estimate(m, 5, c)
				if err != nil {
					t.Fatal(err)
				}
				if out[i] != want {
					t.Fatalf("mode %v measure %v candidate %d: batch %v, estimate %v", degrees, m, c, out[i], want)
				}
			}
		}
	}
}

// TestDynamicSaveLoad: the image round-trips (including refcounts,
// discard counts, and degraded flags), re-saving is byte-identical,
// and the restored store continues serving inserts and deletes.
func TestDynamicSaveLoad(t *testing.T) {
	cfg := Config{K: 16, Seed: 17, Degrees: DegreeDistinctKMV}
	s, err := NewDynamicStore(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	edges := dynRandomEdges(r, 800, 60)
	for _, e := range edges {
		s.ProcessEdge(e)
	}
	for _, e := range edges[:300] {
		s.DeleteEdge(e)
	}
	var img bytes.Buffer
	if err := s.Save(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDynamicStore(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != s.NumEdges() || loaded.NumVertices() != s.NumVertices() {
		t.Fatalf("counts diverge after load: edges %d vs %d, vertices %d vs %d",
			loaded.NumEdges(), s.NumEdges(), loaded.NumVertices(), s.NumVertices())
	}
	if loaded.DegradedRegisters() != s.DegradedRegisters() {
		t.Fatalf("degraded count %d after load, want %d", loaded.DegradedRegisters(), s.DegradedRegisters())
	}
	for i := 0; i < 200; i++ {
		u := r.Uint64() % 60
		v := r.Uint64() % 60
		for _, m := range dynMeasures {
			a, _ := s.Estimate(m, u, v)
			b, _ := loaded.Estimate(m, u, v)
			if a != b {
				t.Fatalf("measure %v pair (%d,%d): %v before save, %v after load", m, u, v, a, b)
			}
		}
	}
	var img2 bytes.Buffer
	if err := loaded.Save(&img2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), img2.Bytes()) {
		t.Fatal("re-saving a loaded store is not byte-identical")
	}
	// The restored store keeps mutating correctly.
	for _, e := range edges[300:350] {
		if !loaded.DeleteEdge(e) {
			t.Fatalf("restored store refused delete of live edge (%d,%d)", e.U, e.V)
		}
	}
	// LoadAny dispatches on the magic.
	any, err := LoadAny(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any.(*DynamicStore); !ok {
		t.Fatalf("LoadAny returned %T, want *DynamicStore", any)
	}
}

// TestDynamicLoadRejectsCorrupt: truncations and structural corruption
// must come back as errors, never panics or silently wrong stores.
func TestDynamicLoadRejectsCorrupt(t *testing.T) {
	cfg := Config{K: 4, Seed: 2}
	s, err := NewDynamicStore(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		s.ProcessEdge(stream.Edge{U: i, V: i + 1, T: int64(i)})
	}
	var img bytes.Buffer
	if err := s.Save(&img); err != nil {
		t.Fatal(err)
	}
	full := img.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := LoadDynamicStore(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at byte %d loaded without error", cut)
		}
	}
	// Flipping the depth field to zero must be rejected.
	bad := bytes.Clone(full)
	copy(bad[12:16], []byte{0, 0, 0, 0})
	if _, err := LoadDynamicStore(bytes.NewReader(bad)); err == nil {
		t.Fatal("zero recovery depth accepted")
	}
	// A vertex stored twice. A star on vertex 1 loses edges until one
	// register degrades; then vertex 1's record is appended to the image
	// and the vertex count raised to 40. Loaded, the store would count
	// the degraded register twice, and its re-save would load as a
	// different store.
	star := must(NewDynamicStore(Config{K: 4, Seed: 2}, 1))
	for leaf := uint64(2); leaf < 40; leaf++ {
		star.ProcessEdge(stream.Edge{U: 1, V: leaf, T: int64(leaf)})
	}
	for leaf := uint64(2); star.DegradedRegisters() == 0; leaf++ {
		star.DeleteEdge(stream.Edge{U: 1, V: leaf})
	}
	full = saveBytes(t, star.Save)
	// Vertex 1's record follows the 44-byte header: id and arrivals, then
	// K register records of 6 bytes plus 20 per entry.
	end := 44 + 16
	for r := 0; r < 4; r++ {
		end += 6 + 20*int(full[end+5])
	}
	twice := append(bytes.Clone(full), full[44:end]...)
	binary.LittleEndian.PutUint64(twice[36:44], 40)
	for _, r := range []io.Reader{bytes.NewReader(twice), struct{ io.Reader }{bytes.NewReader(twice)}} {
		if _, err := LoadAny(r); err == nil || !strings.Contains(err.Error(), "byte") {
			t.Fatalf("image storing vertex 1 twice, from %T: %v", r, err)
		}
	}
}

// TestDynamicMemoryBytes: the gauge must charge for the recovery
// buffers and per-register metadata — the whole point of the audit is
// that the dynamic store's footprint is not the insert-only bank's.
func TestDynamicMemoryBytes(t *testing.T) {
	cfg := Config{K: 8, Seed: 1}
	s, err := NewDynamicStore(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.MemoryBytes() != 0 {
		t.Fatalf("empty store reports %d bytes", s.MemoryBytes())
	}
	s.ProcessEdge(stream.Edge{U: 1, V: 2, T: 1})
	perVertex := vertexOverhead + cfg.K*4*dynEntryBytes + cfg.K*dynRegMetaBytes
	if got, want := s.MemoryBytes(), 2*perVertex; got != want {
		t.Fatalf("MemoryBytes = %d, want %d (must include recovery buffers)", got, want)
	}
	// Sanity: the recovery buffers dominate the per-vertex charge.
	if s.MemoryBytes() < 2*cfg.K*4*dynEntryBytes {
		t.Fatal("MemoryBytes undercounts the recovery buffers")
	}
}

// TestDynamicRejectsInsertOnlyOptions: biased sketches and triangle
// tracking are insert-only structures the dynamic store cannot honor.
func TestDynamicRejectsInsertOnlyOptions(t *testing.T) {
	if _, err := NewDynamicStore(Config{K: 4, EnableBiased: true}, 2); err == nil {
		t.Fatal("EnableBiased accepted")
	}
	if _, err := NewDynamicStore(Config{K: 4, TrackTriangles: true}, 2); err == nil {
		t.Fatal("TrackTriangles accepted")
	}
	if _, err := NewDynamicStore(Config{K: 0}, 2); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewDynamicStore(Config{K: 4}, maxDynDepth+1); err == nil {
		t.Fatal("oversized depth accepted")
	}
}
