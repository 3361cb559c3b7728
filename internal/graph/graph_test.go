package graph

import (
	"math"
	"testing"
)

func tinyGraph() *CSR {
	//      0 --1--> 1 --2--> 2
	//      |                 ^
	//      +-------7---------+
	return MustBuild(3, []Edge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 0, V: 2, W: 7},
	}, nil)
}

func TestBuildBasics(t *testing.T) {
	g := tinyGraph()
	if g.N != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N, g.M())
	}
	ts, ws := g.Neighbors(0)
	if len(ts) != 2 || ts[0] != 1 || ws[0] != 1 || ts[1] != 2 || ws[1] != 7 {
		t.Fatalf("neighbors(0) = %v %v", ts, ws)
	}
	if g.OutDegree(2) != 0 {
		t.Fatalf("deg(2) = %d", g.OutDegree(2))
	}
	if g.MaxOutDegreeVertex() != 0 {
		t.Fatalf("max-degree vertex = %d", g.MaxOutDegreeVertex())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(0, nil, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Build(2, []Edge{{U: 0, V: 5, W: 1}}, nil); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := Build(2, nil, make([]Coord, 3)); err == nil {
		t.Error("mismatched coords accepted")
	}
}

func TestBuildPreservesMultiEdges(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 1, 5}, {0, 1, 9}}, nil)
	ts, ws := g.Neighbors(0)
	if len(ts) != 2 || ws[0] != 5 || ws[1] != 9 {
		t.Fatalf("multi-edges mangled: %v %v", ts, ws)
	}
}

func TestRoadGridProperties(t *testing.T) {
	g := GenerateRoadGrid(20, 30, 7)
	if g.N != 600 {
		t.Fatalf("N = %d", g.N)
	}
	if g.Coords == nil {
		t.Fatal("road grid missing coordinates")
	}
	if !g.Undirected() {
		t.Fatal("road grid not undirected")
	}
	if _, comps := g.ConnectedComponents(); comps != 1 {
		t.Fatalf("road grid has %d components, want 1", comps)
	}
	// Degrees bounded: grid + diagonals gives max degree 8.
	degs := g.DegreeHistogram()
	if degs[len(degs)-1] > 8 {
		t.Fatalf("max degree %d too high for a road grid", degs[len(degs)-1])
	}
	// Admissibility invariant: w >= ceil(dist * scale).
	for u := 0; u < g.N; u++ {
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			min := math.Ceil(EuclidDist(g.Coords[u], g.Coords[v]) * HeuristicScale)
			if float64(ws[i]) < min {
				t.Fatalf("edge (%d,%d) weight %d below Euclidean bound %v", u, v, ws[i], min)
			}
		}
	}
}

func TestRoadGridDeterministic(t *testing.T) {
	a := GenerateRoadGrid(10, 10, 5)
	b := GenerateRoadGrid(10, 10, 5)
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts %d vs %d", a.M(), b.M())
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestRMATProperties(t *testing.T) {
	g := GenerateRMAT(10, 8, DefaultRMATParams(), 11)
	if g.N != 1024 {
		t.Fatalf("N = %d", g.N)
	}
	if g.M() < 7*1024 { // some self-loops dropped
		t.Fatalf("M = %d, want close to %d", g.M(), 8*1024)
	}
	for _, w := range g.Weights {
		if w > 255 {
			t.Fatalf("weight %d out of [0,255]", w)
		}
	}
	// Power-law check: the top vertex should hold far more than the mean
	// degree.
	degs := g.DegreeHistogram()
	mean := float64(g.M()) / float64(g.N)
	if float64(degs[len(degs)-1]) < 5*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f", degs[len(degs)-1], mean)
	}
}

func TestUniformRandom(t *testing.T) {
	g := GenerateUniformRandom(100, 1000, 50, 3)
	if g.N != 100 || g.M() != 1000 {
		t.Fatalf("N=%d M=%d", g.N, g.M())
	}
	for u := 0; u < g.N; u++ {
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			if v == uint32(u) {
				t.Fatal("self-loop generated")
			}
			if ws[i] < 1 || ws[i] > 50 {
				t.Fatalf("weight %d out of range", ws[i])
			}
		}
	}
}

func TestStandardInputs(t *testing.T) {
	gs := StandardInputs(1)
	for _, name := range []string{"USA", "WEST", "TWITTER", "WEB"} {
		g, ok := gs[name]
		if !ok {
			t.Fatalf("missing standard input %s", name)
		}
		if g.N == 0 || g.M() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if gs["USA"].Coords == nil || gs["WEST"].Coords == nil {
		t.Fatal("road inputs need coordinates for A*")
	}
	if gs["USA"].N <= gs["WEST"].N {
		t.Fatal("USA should be larger than WEST, as in Table 1")
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two disjoint pairs plus an isolated vertex.
	g := MustBuild(5, []Edge{{0, 1, 1}, {2, 3, 1}}, nil)
	labels, comps := g.ConnectedComponents()
	if comps != 3 {
		t.Fatalf("components = %d, want 3", comps)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Fatalf("bad labels: %v", labels)
	}
}

func TestHeuristicZeroWithoutCoords(t *testing.T) {
	g := tinyGraph()
	if h := g.Heuristic(0, 2); h != 0 {
		t.Fatalf("coordless heuristic = %d", h)
	}
}

func TestStat(t *testing.T) {
	g := GenerateRoadGrid(4, 4, 1)
	s := g.Stat("test")
	if s.N != 16 || s.M != g.M() || !s.HasCoords || s.MaxDeg < 2 {
		t.Fatalf("bad stats: %+v", s)
	}
}
