package graph

import (
	"testing"
	"testing/quick"

	"linkpred/internal/rng"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	if !g.AddEdge(1, 2) {
		t.Error("first AddEdge(1,2) should be new")
	}
	if g.AddEdge(1, 2) {
		t.Error("duplicate AddEdge(1,2) should not be new")
	}
	if g.AddEdge(2, 1) {
		t.Error("reversed duplicate AddEdge(2,1) should not be new")
	}
	if g.AddEdge(3, 3) {
		t.Error("self-loop should be ignored")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.NumVertices() != 2 {
		t.Errorf("NumVertices = %d, want 2", g.NumVertices())
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g := New()
	g.AddEdge(7, 9)
	if !g.HasEdge(7, 9) || !g.HasEdge(9, 7) {
		t.Error("undirected edge must be visible from both ends")
	}
	if g.HasEdge(7, 8) {
		t.Error("absent edge reported present")
	}
}

func TestDegree(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 4)
	g.AddEdge(1, 2) // duplicate
	if g.Degree(1) != 3 {
		t.Errorf("Degree(1) = %d, want 3", g.Degree(1))
	}
	if g.Degree(2) != 1 {
		t.Errorf("Degree(2) = %d, want 1", g.Degree(2))
	}
	if g.Degree(99) != 0 {
		t.Errorf("Degree(unknown) = %d, want 0", g.Degree(99))
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := New()
	for v := uint64(1); v <= 10; v++ {
		g.AddEdge(0, v)
	}
	calls := 0
	g.Neighbors(0, func(v uint64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop visited %d neighbors, want 3", calls)
	}
}

func TestVerticesEarlyStop(t *testing.T) {
	g := New()
	for v := uint64(1); v <= 10; v++ {
		g.AddEdge(v, v+100)
	}
	calls := 0
	g.Vertices(func(u uint64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop visited %d vertices, want 1", calls)
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := New()
	// N(1) = {2,3,4}, N(5) = {3,4,6} → CN = {3,4}
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 4)
	g.AddEdge(5, 3)
	g.AddEdge(5, 4)
	g.AddEdge(5, 6)
	if got := g.CommonNeighbors(1, 5); got != 2 {
		t.Errorf("CommonNeighbors = %d, want 2", got)
	}
	cs := g.CommonNeighborSlice(1, 5)
	if len(cs) != 2 || cs[0] != 3 || cs[1] != 4 {
		t.Errorf("CommonNeighborSlice = %v, want [3 4]", cs)
	}
	if g.CommonNeighbors(1, 99) != 0 {
		t.Error("CN with unknown vertex should be 0")
	}
}

func TestCommonNeighborsSymmetric(t *testing.T) {
	g := buildRandom(t, 500, 2000, 31)
	x := rng.NewXoshiro256(7)
	for i := 0; i < 200; i++ {
		u := uint64(x.Intn(500))
		v := uint64(x.Intn(500))
		if g.CommonNeighbors(u, v) != g.CommonNeighbors(v, u) {
			t.Fatalf("CN(%d,%d) asymmetric", u, v)
		}
	}
}

func TestTwoHopNeighbors(t *testing.T) {
	g := New()
	// Path 1-2-3-4: two-hop of 1 is {3} (4 is three hops away).
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	got := g.TwoHopNeighbors(1)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("TwoHopNeighbors(1) = %v, want [3]", got)
	}
	// Triangle 1-2-3: 3 is a direct neighbor of 1, so excluded.
	g.AddEdge(1, 3)
	if got := g.TwoHopNeighbors(1); len(got) != 1 || got[0] != 4 {
		// now 4 is two hops from 1 via 3
		t.Errorf("TwoHopNeighbors(1) after closing triangle = %v, want [4]", got)
	}
}

func TestTwoHopExcludesSelfAndDirect(t *testing.T) {
	g := buildRandom(t, 200, 800, 17)
	g.Vertices(func(u uint64) bool {
		direct := make(map[uint64]bool)
		g.Neighbors(u, func(v uint64) bool { direct[v] = true; return true })
		for _, w := range g.TwoHopNeighbors(u) {
			if w == u {
				t.Fatalf("TwoHop(%d) contains self", u)
			}
			if direct[w] {
				t.Fatalf("TwoHop(%d) contains direct neighbor %d", u, w)
			}
			if g.CommonNeighbors(u, w) == 0 {
				t.Fatalf("TwoHop(%d) contains %d with no common neighbor", u, w)
			}
		}
		return true
	})
}

func TestClustering(t *testing.T) {
	g := New()
	// Triangle: clustering of every vertex is 1.
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	if got := g.Clustering(1); got != 1 {
		t.Errorf("triangle clustering = %v, want 1", got)
	}
	// Star center: no neighbor links → 0.
	s := New()
	s.AddEdge(0, 1)
	s.AddEdge(0, 2)
	s.AddEdge(0, 3)
	if got := s.Clustering(0); got != 0 {
		t.Errorf("star clustering = %v, want 0", got)
	}
	if got := s.Clustering(1); got != 0 {
		t.Errorf("degree-1 clustering = %v, want 0", got)
	}
}

func TestVertexSliceSortedComplete(t *testing.T) {
	g := New()
	g.AddEdge(30, 10)
	g.AddEdge(20, 10)
	vs := g.VertexSlice()
	want := []uint64{10, 20, 30}
	if len(vs) != 3 {
		t.Fatalf("VertexSlice = %v", vs)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("VertexSlice = %v, want %v", vs, want)
		}
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	g := New()
	prev := g.MemoryBytes()
	for i := uint64(0); i < 100; i++ {
		g.AddEdge(i, i+1)
		if m := g.MemoryBytes(); m <= prev {
			t.Fatalf("MemoryBytes did not grow after edge %d", i)
		} else {
			prev = m
		}
	}
}

// TestDegreeSumInvariant checks the handshake lemma: the sum of degrees is
// twice the number of edges, for random graphs of any shape.
func TestDegreeSumInvariant(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g := buildRandom(t, 100, 300, seed)
		sum := 0
		g.Vertices(func(u uint64) bool {
			sum += g.Degree(u)
			return true
		})
		return sum == 2*g.NumEdges()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func buildRandom(t *testing.T, n, m int, seed uint64) *Graph {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	g := New()
	for i := 0; i < m; i++ {
		g.AddEdge(uint64(x.Intn(n)), uint64(x.Intn(n)))
	}
	return g
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if !g.RemoveEdge(2, 1) {
		t.Error("RemoveEdge of present edge should report true")
	}
	if g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Error("edge still present after removal")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.NumVertices() != 2 {
		t.Errorf("NumVertices = %d, want 2 (vertex 1 dropped)", g.NumVertices())
	}
	if g.RemoveEdge(1, 2) {
		t.Error("double removal should report false")
	}
	if g.RemoveEdge(8, 9) {
		t.Error("removal of unknown edge should report false")
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	g := buildRandom(t, 50, 400, 77)
	edges := [][2]uint64{}
	g.Vertices(func(u uint64) bool {
		g.Neighbors(u, func(v uint64) bool {
			if u < v {
				edges = append(edges, [2]uint64{u, v})
			}
			return true
		})
		return true
	})
	for _, e := range edges {
		if !g.RemoveEdge(e[0], e[1]) {
			t.Fatalf("RemoveEdge(%d, %d) failed", e[0], e[1])
		}
	}
	if g.NumEdges() != 0 || g.NumVertices() != 0 {
		t.Errorf("graph not empty after removing all edges: %d edges, %d vertices",
			g.NumEdges(), g.NumVertices())
	}
}
