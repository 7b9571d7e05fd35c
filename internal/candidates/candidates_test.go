package candidates

import (
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("recentSize=0 should error")
	}
	if _, err := New(8, 0); err == nil {
		t.Error("poolSize=0 should error")
	}
	if _, err := New(4, 16); err != nil {
		t.Error(err)
	}
}

func TestTwoHopDiscovery(t *testing.T) {
	tr, _ := New(8, 16)
	// Path: 1-2 then 3-2. When (3,2) arrives, 2's recent = {1}, so 1
	// becomes a candidate of 3 (and 3 of nobody yet via 1's side).
	tr.ProcessEdge(stream.Edge{U: 1, V: 2})
	tr.ProcessEdge(stream.Edge{U: 3, V: 2})
	got := tr.Candidates(3)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Candidates(3) = %v, want [1]", got)
	}
	// Direction symmetric: when (3,2) arrived, 3 had no recent
	// neighbors, so 1 gained nothing... but 2's perspective: 2 counts
	// recent of 3 = empty. Candidates(1) gains 3 only after another
	// edge through 2.
	tr.ProcessEdge(stream.Edge{U: 1, V: 2})
	got = tr.Candidates(1)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("Candidates(1) = %v, want [3]", got)
	}
}

func TestNoSelfCandidates(t *testing.T) {
	tr, _ := New(8, 16)
	tr.ProcessEdge(stream.Edge{U: 1, V: 2})
	tr.ProcessEdge(stream.Edge{U: 1, V: 2}) // duplicate: 2's recent has 1
	for _, c := range tr.Candidates(1) {
		if c == 1 {
			t.Fatal("vertex became its own candidate")
		}
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	tr, _ := New(4, 8)
	tr.ProcessEdge(stream.Edge{U: 5, V: 5})
	if tr.Knows(5) || tr.NumVertices() != 0 {
		t.Error("self-loop should be ignored")
	}
}

func TestHitCountOrdering(t *testing.T) {
	tr, _ := New(8, 16)
	// Build a hub at 2 with spokes; vertex 1 connects to 2 repeatedly so
	// spokes seen more often rank higher.
	tr.ProcessEdge(stream.Edge{U: 10, V: 2})
	tr.ProcessEdge(stream.Edge{U: 1, V: 2}) // 1 sees {10}
	tr.ProcessEdge(stream.Edge{U: 11, V: 2})
	tr.ProcessEdge(stream.Edge{U: 1, V: 2}) // 1 sees {10, 11}
	tr.ProcessEdge(stream.Edge{U: 1, V: 2}) // 1 sees {10, 11} again
	got := tr.Candidates(1)
	if len(got) < 2 || got[0] != 10 {
		t.Errorf("Candidates(1) = %v, want 10 first (3 hits) then 11 (2)", got)
	}
}

func TestPoolBounded(t *testing.T) {
	const pool = 8
	tr, _ := New(16, pool)
	// Vertex 1 repeatedly touches a hub with hundreds of distinct spokes.
	for i := uint64(0); i < 300; i++ {
		tr.ProcessEdge(stream.Edge{U: 100 + i, V: 2})
		tr.ProcessEdge(stream.Edge{U: 1, V: 2})
	}
	got := tr.Candidates(1)
	if len(got) > pool {
		t.Errorf("pool grew to %d, cap %d", len(got), pool)
	}
}

func TestUnknownVertex(t *testing.T) {
	tr, _ := New(4, 8)
	if tr.Candidates(42) != nil {
		t.Error("unknown vertex should have nil candidates")
	}
	if tr.Knows(42) {
		t.Error("unknown vertex reported known")
	}
}

func TestMemoryBoundedPerVertex(t *testing.T) {
	tr, _ := New(8, 32)
	x := rng.NewXoshiro256(1)
	// Many edges over a fixed vertex set: memory must stop growing once
	// every vertex's ring and pool are at capacity.
	for i := 0; i < 5000; i++ {
		tr.ProcessEdge(stream.Edge{U: x.Uint64() % 100, V: x.Uint64() % 100})
	}
	m1 := tr.MemoryBytes()
	for i := 0; i < 5000; i++ {
		tr.ProcessEdge(stream.Edge{U: x.Uint64() % 100, V: x.Uint64() % 100})
	}
	if m2 := tr.MemoryBytes(); m2 > m1 {
		t.Errorf("memory grew %d → %d despite fixed vertex set at capacity", m1, m2)
	}
}

// TestRecallOfExactTwoHopTop measures the property the tracker exists
// for: its pool should contain most of the exact top two-hop partners
// (by common-neighbor count) of active vertices.
func TestRecallOfExactTwoHopTop(t *testing.T) {
	src, err := gen.Coauthor(800, 5000, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := New(8, 64)
	g := graph.New()
	for _, e := range edges {
		tr.ProcessEdge(e)
		g.AddEdge(e.U, e.V)
	}
	x := rng.NewXoshiro256(7)
	vs := g.VertexSlice()
	var recallSum float64
	samples := 0
	for samples < 50 {
		u := vs[x.Intn(len(vs))]
		hops := g.TwoHopNeighbors(u)
		if len(hops) < 10 {
			continue
		}
		// Exact top-5 two-hop partners by CN.
		type sc struct {
			v  uint64
			cn int
		}
		best := make([]sc, 0, len(hops))
		for _, w := range hops {
			best = append(best, sc{w, g.CommonNeighbors(u, w)})
		}
		for i := 0; i < len(best); i++ {
			for j := i + 1; j < len(best); j++ {
				if best[j].cn > best[i].cn {
					best[i], best[j] = best[j], best[i]
				}
			}
		}
		top := best[:5]
		pool := make(map[uint64]bool)
		for _, c := range tr.Candidates(u) {
			pool[c] = true
		}
		hits := 0
		for _, b := range top {
			if pool[b.v] {
				hits++
			}
		}
		recallSum += float64(hits) / float64(len(top))
		samples++
	}
	if recall := recallSum / float64(samples); recall < 0.5 {
		t.Errorf("tracker recall of exact top-5 two-hop partners = %.2f, want >= 0.5", recall)
	}
}

func TestDeterministic(t *testing.T) {
	mk := func() *Tracker {
		tr, _ := New(4, 16)
		x := rng.NewXoshiro256(3)
		for i := 0; i < 2000; i++ {
			tr.ProcessEdge(stream.Edge{U: x.Uint64() % 50, V: x.Uint64() % 50})
		}
		return tr
	}
	a, b := mk(), mk()
	for u := uint64(0); u < 50; u++ {
		ca, cb := a.Candidates(u), b.Candidates(u)
		if len(ca) != len(cb) {
			t.Fatalf("vertex %d: candidate counts differ", u)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("vertex %d: candidates differ at %d", u, i)
			}
		}
	}
}

// TestRingSeenPrePostWrap is the regression for the removal of the
// ring's unused fill flag: countAll must see every occupied slot both
// before the ring has wrapped (partial fill) and after.
func TestRingSeenPrePostWrap(t *testing.T) {
	tr, _ := New(3, 16)
	// Pre-wrap: 1's ring holds {10, 11} (2 of 3 slots).
	tr.ProcessEdge(stream.Edge{U: 1, V: 10})
	tr.ProcessEdge(stream.Edge{U: 1, V: 11})
	tr.ProcessEdge(stream.Edge{U: 2, V: 1})
	got := tr.Candidates(2)
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("pre-wrap Candidates(2) = %v, want [10 11]", got)
	}
	// Post-wrap: two more neighbors push the ring past capacity; 1's
	// ring is now {13, 2, 12} (10 and 11 overwritten).
	tr.ProcessEdge(stream.Edge{U: 1, V: 12})
	tr.ProcessEdge(stream.Edge{U: 1, V: 13})
	tr.ProcessEdge(stream.Edge{U: 3, V: 1})
	got = tr.Candidates(3)
	if len(got) != 3 {
		t.Fatalf("post-wrap Candidates(3) = %v, want 3 candidates", got)
	}
	want := map[uint64]bool{2: true, 12: true, 13: true}
	for _, c := range got {
		if !want[c] {
			t.Fatalf("post-wrap Candidates(3) = %v, want the current ring {2, 12, 13}", got)
		}
	}
}

func TestBoundedValidation(t *testing.T) {
	if _, err := NewBounded(0, 8, 10); err == nil {
		t.Error("recentSize=0 should error")
	}
	if tr, err := NewBounded(4, 8, -5); err != nil || tr.MaxVertices() != 0 {
		t.Errorf("negative cap should normalize to unbounded, got (%v, %v)", tr, err)
	}
}

// TestMaxVerticesCap: with a vertex cap, the tracker never holds more
// than maxVertices states however many distinct vertices the stream
// produces, eviction is oldest-first, and evicted vertices can return.
func TestMaxVerticesCap(t *testing.T) {
	const cap = 4
	tr, _ := NewBounded(4, 8, cap)
	for i := uint64(0); i < 100; i += 2 {
		tr.ProcessEdge(stream.Edge{U: i, V: i + 1})
		if n := tr.NumVertices(); n > cap {
			t.Fatalf("after edge %d: %d vertices live, cap %d", i, n, cap)
		}
	}
	// The survivors are exactly the most recently inserted cap vertices.
	for _, u := range []uint64{96, 97, 98, 99} {
		if !tr.Knows(u) {
			t.Fatalf("recently inserted vertex %d was evicted", u)
		}
	}
	if tr.Knows(0) || tr.Knows(50) {
		t.Fatal("old vertices survived past the cap")
	}
	// An evicted vertex re-enters cleanly with fresh state.
	tr.ProcessEdge(stream.Edge{U: 0, V: 99})
	if !tr.Knows(0) {
		t.Fatal("evicted vertex could not re-enter")
	}
	if n := tr.NumVertices(); n > cap {
		t.Fatalf("re-entry pushed the tracker to %d vertices, cap %d", n, cap)
	}
}

// TestMaxVerticesMemoryBounded: under heavy vertex churn the capped
// tracker's memory (including the eviction queue) stays bounded.
func TestMaxVerticesMemoryBounded(t *testing.T) {
	tr, _ := NewBounded(8, 32, 64)
	x := rng.NewXoshiro256(9)
	for i := 0; i < 20000; i++ {
		tr.ProcessEdge(stream.Edge{U: x.Uint64(), V: x.Uint64()})
	}
	m1 := tr.MemoryBytes()
	for i := 0; i < 20000; i++ {
		tr.ProcessEdge(stream.Edge{U: x.Uint64(), V: x.Uint64()})
	}
	m2 := tr.MemoryBytes()
	// The queue compacts, so memory may wobble but not trend upward:
	// allow a small slack over the first measurement.
	if m2 > m1*2 {
		t.Errorf("capped tracker memory grew %d -> %d under churn", m1, m2)
	}
	if tr.NumVertices() > 64 {
		t.Errorf("%d vertices live, cap 64", tr.NumVertices())
	}
}

// TestTrackerReserve: reserving is a pure sizing hint — state is
// preserved and queries are unchanged.
func TestTrackerReserve(t *testing.T) {
	tr, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr.Reserve(1024)
	tr.ProcessEdge(stream.Edge{U: 2, V: 3})
	tr.ProcessEdge(stream.Edge{U: 1, V: 2}) // path 1-2-3 → 3 is a candidate of 1
	before := tr.Candidates(1)
	tr.Reserve(4096)
	after := tr.Candidates(1)
	if len(before) == 0 || len(after) != len(before) || after[0] != before[0] {
		t.Fatalf("Reserve changed candidates: %v != %v", after, before)
	}
	tr.Reserve(0) // no-op
	if !tr.Knows(2) {
		t.Fatal("Reserve(0) dropped state")
	}
}
