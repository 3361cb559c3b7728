package algos

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/sched"
	"repro/internal/spray"
)

// schedulers enumerates every scheduler in the repository, as used by the
// paper's comparison (Figure 2).
func schedulers(workers int) map[string]func() sched.Scheduler[uint32] {
	return map[string]func() sched.Scheduler[uint32]{
		"smq": func() sched.Scheduler[uint32] {
			return core.NewStealingMQ[uint32](core.Config{Workers: workers})
		},
		"smq_skip": func() sched.Scheduler[uint32] {
			return core.NewStealingMQSkipList[uint32](core.Config{Workers: workers})
		},
		"smq_numa": func() sched.Scheduler[uint32] {
			return core.NewStealingMQ[uint32](core.Config{Workers: workers, NUMANodes: 2})
		},
		"mq_classic": func() sched.Scheduler[uint32] {
			return mq.New[uint32](mq.Classic(workers, 4))
		},
		"mq_opt": func() sched.Scheduler[uint32] {
			return mq.New[uint32](mq.Config{Workers: workers, C: 4,
				Insert: mq.InsertBatch, BatchInsert: 8,
				Delete: mq.DeleteBatch, BatchDelete: 8})
		},
		"reld": func() sched.Scheduler[uint32] {
			return mq.New[uint32](mq.RELD(workers))
		},
		"obim": func() sched.Scheduler[uint32] {
			return obim.New[uint32](obim.Config{Workers: workers, Delta: 6, ChunkSize: 16})
		},
		"pmod": func() sched.Scheduler[uint32] {
			return obim.New[uint32](obim.Config{Workers: workers, Delta: 6, ChunkSize: 16,
				Adaptive: true, AdaptInterval: 512})
		},
		"spray": func() sched.Scheduler[uint32] {
			return spray.New[uint32](spray.Config{Workers: workers})
		},
		"emq": func() sched.Scheduler[uint32] {
			return mq.New[uint32](mq.Engineered(workers))
		},
		"emq_unbuffered": func() sched.Scheduler[uint32] {
			cfg := mq.Engineered(workers)
			cfg.Stickiness, cfg.BatchInsert, cfg.BatchDelete = 1, 1, 1
			return mq.New[uint32](cfg)
		},
	}
}

func testGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"grid": graph.GenerateRoadGrid(24, 24, 7),
		"rmat": graph.GenerateRMAT(9, 8, graph.DefaultRMATParams(), 8),
	}
}

func TestSSSPMatchesDijkstraAllSchedulers(t *testing.T) {
	for gname, g := range testGraphs() {
		src := g.MaxOutDegreeVertex()
		want, _ := DijkstraSeq(g, src)
		for sname, mk := range schedulers(4) {
			got, res := SSSP(g, src, mk())
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: dist[%d] = %d, want %d", gname, sname, v, got[v], want[v])
				}
			}
			if res.Tasks == 0 {
				t.Fatalf("%s/%s: no tasks recorded", gname, sname)
			}
			if res.Wasted > res.Tasks {
				t.Fatalf("%s/%s: wasted %d > tasks %d", gname, sname, res.Wasted, res.Tasks)
			}
		}
	}
}

func TestBFSMatchesLevelsAllSchedulers(t *testing.T) {
	for gname, g := range testGraphs() {
		src := g.MaxOutDegreeVertex()
		want := BFSSeq(g, src)
		for sname, mk := range schedulers(4) {
			got, _ := BFS(g, src, mk())
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: level[%d] = %d, want %d", gname, sname, v, got[v], want[v])
				}
			}
		}
	}
}

func TestAStarMatchesDijkstraAllSchedulers(t *testing.T) {
	g := graph.GenerateRoadGrid(30, 30, 3)
	src := uint32(0)
	target := uint32(g.N - 1)
	dist, _ := DijkstraSeq(g, src)
	want := dist[target]
	if want == Unreachable {
		t.Fatal("test graph has unreachable corner")
	}
	seq, _ := AStarSeq(g, src, target)
	if seq != want {
		t.Fatalf("sequential A* = %d, Dijkstra = %d", seq, want)
	}
	for sname, mk := range schedulers(4) {
		got, _ := AStar(g, src, target, mk())
		if got != want {
			t.Fatalf("%s: A* = %d, want %d", sname, got, want)
		}
	}
}

func TestAStarUnreachable(t *testing.T) {
	// Two disconnected vertices.
	g := graph.MustBuild(2, nil, []graph.Coord{{X: 0, Y: 0}, {X: 5, Y: 5}})
	got, _ := AStar(g, 0, 1, core.NewStealingMQ[uint32](core.Config{Workers: 2}))
	if got != Unreachable {
		t.Fatalf("A* on disconnected pair = %d, want Unreachable", got)
	}
}

func TestMSTMatchesKruskalAllSchedulers(t *testing.T) {
	for gname, g := range map[string]*graph.CSR{
		"grid":  graph.GenerateRoadGrid(16, 16, 5),
		"grid2": graph.GenerateRoadGrid(8, 40, 6),
	} {
		wantW, wantE := KruskalMST(g)
		for sname, mk := range schedulers(4) {
			gotW, gotE, res := BoruvkaMST(g, mk())
			if gotW != wantW {
				t.Fatalf("%s/%s: MST weight %d, want %d", gname, sname, gotW, wantW)
			}
			if gotE != wantE {
				t.Fatalf("%s/%s: MST edges %d, want %d", gname, sname, gotE, wantE)
			}
			if res.Tasks == 0 {
				t.Fatalf("%s/%s: no tasks recorded", gname, sname)
			}
		}
	}
}

func TestMSTDisconnected(t *testing.T) {
	// Forest: two separate 2-cliques (undirected = both directions).
	g := graph.MustBuild(5, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 0, W: 3},
		{U: 2, V: 3, W: 4}, {U: 3, V: 2, W: 4},
	}, nil)
	wantW, wantE := KruskalMST(g)
	gotW, gotE, _ := BoruvkaMST(g, core.NewStealingMQ[uint32](core.Config{Workers: 2}))
	if gotW != wantW || gotE != wantE {
		t.Fatalf("forest MST = (%d,%d), want (%d,%d)", gotW, gotE, wantW, wantE)
	}
	if wantE != 2 {
		t.Fatalf("sanity: expected 2 forest edges, Kruskal said %d", wantE)
	}
}

func TestPageRankMatchesSequential(t *testing.T) {
	g := graph.GenerateRMAT(8, 8, graph.DefaultRMATParams(), 13)
	cfg := PageRankConfig{Damping: 0.85, Epsilon: 1e-7}
	want := PageRankSeq(g, cfg)
	for sname, mk := range map[string]func() sched.Scheduler[uint32]{
		"smq":  func() sched.Scheduler[uint32] { return core.NewStealingMQ[uint32](core.Config{Workers: 4}) },
		"obim": func() sched.Scheduler[uint32] { return obim.New[uint32](obim.Config{Workers: 4}) },
	} {
		got, res := ResidualPageRank(g, cfg, mk())
		// Residual propagation truncates at epsilon; both runs carry
		// total truncation error <= n*eps/(1-d) in L1.
		tol := float64(g.N) * cfg.Epsilon / (1 - cfg.Damping) * 2
		if d := L1Diff(got, want); d > tol {
			t.Fatalf("%s: PageRank L1 diff %g > tol %g", sname, d, tol)
		}
		if res.Tasks == 0 {
			t.Fatalf("%s: no tasks recorded", sname)
		}
	}
}

func TestSSSPSingleWorker(t *testing.T) {
	g := graph.GenerateRoadGrid(12, 12, 2)
	want, seq := DijkstraSeq(g, 0)
	got, res := SSSP(g, 0, core.NewStealingMQ[uint32](core.Config{Workers: 1}))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	// A single worker with an exact-ish queue should do work comparable
	// to sequential Dijkstra (within the SMQ's bounded rank relaxation).
	if res.WorkIncrease(seq.Tasks) > 3 {
		t.Fatalf("single-worker work increase %.2f unexpectedly high", res.WorkIncrease(seq.Tasks))
	}
}

func TestWorkIncreaseZeroBaseline(t *testing.T) {
	if (Result{Tasks: 5}).WorkIncrease(0) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestUnreachableVerticesStayInf(t *testing.T) {
	// src in one component; other component must stay Unreachable.
	g := graph.MustBuild(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1},
		{U: 2, V: 3, W: 1}, {U: 3, V: 2, W: 1},
	}, nil)
	got, _ := SSSP(g, 0, core.NewStealingMQ[uint32](core.Config{Workers: 2}))
	if got[2] != Unreachable || got[3] != Unreachable {
		t.Fatalf("unreachable vertices got distances: %v", got)
	}
	if got[1] != 1 {
		t.Fatalf("dist[1] = %d", got[1])
	}
}

func TestDijkstraSeqKnownGraph(t *testing.T) {
	//      0 -1-> 1 -2-> 2, plus direct 0 -7-> 2 (shortcut loses).
	g := graph.MustBuild(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 7},
	}, nil)
	dist, res := DijkstraSeq(g, 0)
	if dist[0] != 0 || dist[1] != 1 || dist[2] != 3 {
		t.Fatalf("dist = %v", dist)
	}
	if res.Tasks == 0 {
		t.Fatal("no tasks counted")
	}
}

func TestKruskalKnownGraph(t *testing.T) {
	// Triangle with weights 1,2,3: MST = 1+2.
	g := graph.MustBuild(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1},
		{U: 1, V: 2, W: 2}, {U: 2, V: 1, W: 2},
		{U: 0, V: 2, W: 3}, {U: 2, V: 0, W: 3},
	}, nil)
	w, e := KruskalMST(g)
	if w != 3 || e != 2 {
		t.Fatalf("Kruskal = (%d,%d), want (3,2)", w, e)
	}
}
