package graph

import (
	"testing"
	"testing/quick"

	"linkpred/internal/rng"
)

func TestDiGraphBasics(t *testing.T) {
	g := NewDi()
	if !g.AddArc(1, 2) {
		t.Error("first AddArc should be new")
	}
	if g.AddArc(1, 2) {
		t.Error("duplicate arc should not be new")
	}
	if !g.AddArc(2, 1) {
		t.Error("reverse arc is distinct and should be new")
	}
	if g.AddArc(3, 3) {
		t.Error("self-loop should be ignored")
	}
	if g.NumArcs() != 2 {
		t.Errorf("NumArcs = %d, want 2", g.NumArcs())
	}
	if g.NumVertices() != 2 {
		t.Errorf("NumVertices = %d, want 2", g.NumVertices())
	}
}

func TestDiGraphHasArcDirectional(t *testing.T) {
	g := NewDi()
	g.AddArc(5, 7)
	if !g.HasArc(5, 7) {
		t.Error("arc missing")
	}
	if g.HasArc(7, 5) {
		t.Error("reverse arc should not exist")
	}
}

func TestDiGraphDegrees(t *testing.T) {
	g := NewDi()
	g.AddArc(1, 2)
	g.AddArc(1, 3)
	g.AddArc(4, 1)
	if g.OutDegree(1) != 2 || g.InDegree(1) != 1 || g.TotalDegree(1) != 3 {
		t.Errorf("degrees of 1 = %d/%d/%d, want 2/1/3",
			g.OutDegree(1), g.InDegree(1), g.TotalDegree(1))
	}
	if g.OutDegree(99) != 0 || g.InDegree(99) != 0 {
		t.Error("unknown vertex degrees should be 0")
	}
}

func TestDiGraphNeighborsIteration(t *testing.T) {
	g := NewDi()
	g.AddArc(1, 2)
	g.AddArc(1, 3)
	g.AddArc(4, 1)
	outs := map[uint64]bool{}
	g.OutNeighbors(1, func(v uint64) bool { outs[v] = true; return true })
	if len(outs) != 2 || !outs[2] || !outs[3] {
		t.Errorf("OutNeighbors(1) = %v", outs)
	}
	// Early stop.
	calls := 0
	g.OutNeighbors(1, func(v uint64) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop visited %d, want 1", calls)
	}
}

func TestThroughNeighbors(t *testing.T) {
	g := NewDi()
	// Two-paths 1→10→2 and 1→11→2; distractors 1→12, 13→2.
	g.AddArc(1, 10)
	g.AddArc(10, 2)
	g.AddArc(1, 11)
	g.AddArc(11, 2)
	g.AddArc(1, 12)
	g.AddArc(13, 2)
	got := g.ThroughNeighbors(1, 2)
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Errorf("ThroughNeighbors(1,2) = %v, want [10 11]", got)
	}
	if g.CountThrough(1, 2) != 2 {
		t.Errorf("CountThrough = %d, want 2", g.CountThrough(1, 2))
	}
	// Directionality: no w with 2→w→1.
	if g.CountThrough(2, 1) != 0 {
		t.Errorf("CountThrough(2,1) = %d, want 0", g.CountThrough(2, 1))
	}
}

func TestThroughNeighborsBothBranches(t *testing.T) {
	// Exercise both the |out| <= |in| and |out| > |in| intersection
	// branches against a brute-force check.
	x := rng.NewXoshiro256(3)
	g := NewDi()
	for i := 0; i < 3000; i++ {
		u := uint64(x.Intn(100))
		v := uint64(x.Intn(100))
		g.AddArc(u, v)
	}
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		want := 0
		g.OutNeighbors(u, func(w uint64) bool {
			if g.HasArc(w, v) {
				want++
			}
			return true
		})
		if got := g.CountThrough(u, v); got != want {
			t.Fatalf("CountThrough(%d,%d) = %d, brute force %d", u, v, got, want)
		}
		if got := len(g.ThroughNeighbors(u, v)); got != want {
			t.Fatalf("ThroughNeighbors(%d,%d) has %d, brute force %d", u, v, got, want)
		}
	}
}

func TestDiGraphDegreeSumInvariant(t *testing.T) {
	// Σ out-degree = Σ in-degree = #arcs.
	if err := quick.Check(func(seed uint64) bool {
		x := rng.NewXoshiro256(seed)
		g := NewDi()
		for i := 0; i < 300; i++ {
			g.AddArc(uint64(x.Intn(60)), uint64(x.Intn(60)))
		}
		outSum, inSum := 0, 0
		for u := uint64(0); u < 60; u++ {
			outSum += g.OutDegree(u)
			inSum += g.InDegree(u)
		}
		return outSum == g.NumArcs() && inSum == g.NumArcs()
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
