package smq_test

import (
	"fmt"
	"slices"
	"sync/atomic"

	smq "repro"
)

// Every scheduler of the zoo is built the same way: by name, at its
// default configuration. A Spec also carries the scheduler's rank-error
// bound; the k-LSM's is a worst case, (P−1)·k+P at k = 256.
func ExampleLookupSpec() {
	spec, _ := smq.LookupSpec[string]("klsm")
	s := spec.Make(8, 42)
	bound, exact := spec.RankBound(8)
	fmt.Println(spec.Name, s.Workers(), bound, exact)
	// Output: klsm 8 1800 true
}

// Relaxation changes how much work a scheduler wastes, never the
// answer: shortest paths through every scheduler of the lineup match
// sequential Dijkstra.
func ExampleLineup() {
	g := smq.GenerateRoadGrid(24, 24, 42)
	want := smq.DijkstraSeq(g, 0)
	for _, spec := range smq.Lineup[uint32]() {
		dist, _ := smq.SSSP(g, 0, spec.Make(2, 1))
		fmt.Println(spec.Name, slices.Equal(dist, want))
	}
	// Output:
	// coarse true
	// cbpq true
	// cbpq-elim true
	// mq true
	// mq-batch true
	// emq true
	// smq true
	// smq-skip true
	// reld true
	// klsm true
	// obim true
	// pmod true
	// spray true
}

// Process runs a task graph to completion. Here every task above the
// cutoff depth spawns two children one level deeper, so the run visits a
// complete binary tree. Follow-on tasks are registered with pending.Inc
// before they are pushed; Process retires each task it ran. The order of
// the visits depends on how the four workers interleave, the counts do
// not.
func ExampleProcess() {
	spec, _ := smq.LookupSpec[uint32]("smq")
	s := spec.Make(4, 1)
	var visited atomic.Int64
	smq.Process(s,
		func(w smq.Worker[uint32]) { w.Push(0, 1) }, // the root, at depth 0
		func(_ int, w smq.Worker[uint32], pending *smq.Pending, depth uint64, id uint32) {
			visited.Add(1)
			if depth < 12 {
				pending.Inc(2)
				w.Push(depth+1, 2*id)
				w.Push(depth+1, 2*id+1)
			}
		})
	st := s.Stats()
	fmt.Println("visited:", visited.Load())
	fmt.Println("pushed:", st.Pushes, "popped:", st.Pops)
	// Output:
	// visited: 8191
	// pushed: 8191 popped: 8191
}

// The bulk operations move tasks as a batch: PushN takes parallel
// priority and value slices, and PopN fills a Task slice and reports how
// many it took. The coarse queue is exact, so the batch comes back in
// priority order.
func ExampleTask() {
	spec, _ := smq.LookupSpec[string]("coarse")
	w := spec.Make(1, 0).Worker(0)
	w.PushN([]uint64{30, 10, 20}, []string{"low", "high", "mid"})
	dst := make([]smq.Task[string], 8)
	n := w.PopN(dst)
	for _, t := range dst[:n] {
		fmt.Println(t.P, t.V)
	}
	// Output:
	// 10 high
	// 20 mid
	// 30 low
}

// The Stealing Multi-Queue's knobs are those of the paper's Figure 1
// ablation: how many tasks a worker publishes for thieves (StealSize) and
// how often it tries to steal while its own queue is not empty
// (StealProb). With one worker there is nobody to steal from, so the
// queue is exact.
func ExampleNewStealingMQ() {
	s := smq.NewStealingMQ[string](smq.SMQConfig{Workers: 1, StealSize: 8, StealProb: 1.0 / 32})
	w := s.Worker(0)
	w.Push(30, "low")
	w.Push(10, "high")
	w.Push(20, "mid")
	for {
		p, v, ok := w.Pop()
		if !ok {
			break
		}
		fmt.Println(p, v)
	}
	// Output:
	// 10 high
	// 20 mid
	// 30 low
}

// The skip-list SMQ (the paper's Appendix D) takes the same config; its
// local queues are concurrent skip lists, so the heap arity does not
// apply.
func ExampleNewStealingMQSkipList() {
	s := smq.NewStealingMQSkipList[int](smq.SMQConfig{Workers: 1, StealSize: 2})
	w := s.Worker(0)
	for _, p := range []uint64{5, 3, 9, 1, 7} {
		w.Push(p, int(p))
	}
	var got []uint64
	for {
		p, _, ok := w.Pop()
		if !ok {
			break
		}
		got = append(got, p)
	}
	fmt.Println(got)
	// Output: [1 3 5 7 9]
}

// The Multi-Queue's policies (§2.1 and Appendix C) are fields of
// MQConfig. Listing 1's classic queue needs only C; RELD is one queue
// per worker with local deletes; the temporal-locality and batching
// policies keep a worker on the queue it used last. Each configuration
// computes exact shortest paths.
func ExampleNewMultiQueue() {
	g := smq.GenerateRoadGrid(24, 24, 42)
	want := smq.DijkstraSeq(g, 0)
	for _, c := range []struct {
		name string
		cfg  smq.MQConfig
	}{
		{"classic", smq.MQConfig{Workers: 2, C: 4}},
		{"reld", smq.MQConfig{Workers: 2, C: 1, Delete: smq.DeleteLocal}},
		{"tl-tl", smq.MQConfig{Workers: 2, C: 4,
			Insert: smq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
			Delete: smq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64}},
		{"b-b", smq.MQConfig{Workers: 2, C: 4,
			Insert: smq.InsertBatch, BatchInsert: 8,
			Delete: smq.DeleteBatch, BatchDelete: 8}},
	} {
		dist, _ := smq.SSSP(g, 0, smq.NewMultiQueue[uint32](c.cfg))
		fmt.Println(c.name, slices.Equal(dist, want))
	}
	// Output:
	// classic true
	// reld true
	// tl-tl true
	// b-b true
}

// The strict k-LSM (Relaxation KLSMStrict, k = 0) keeps every task in
// the shared global LSM, so it is exact at any worker count; a positive
// Relaxation lets each worker hold up to k tasks locally.
func ExampleNewKLSM() {
	s := smq.NewKLSM[int](smq.KLSMConfig{Workers: 2, Relaxation: smq.KLSMStrict})
	w := s.Worker(0)
	for _, p := range []uint64{5, 3, 9, 1, 7} {
		w.Push(p, int(p))
	}
	var got []uint64
	for {
		p, _, ok := w.Pop()
		if !ok {
			break
		}
		got = append(got, p)
	}
	fmt.Println(got)
	// Output: [1 3 5 7 9]
}

// OBIM keeps one bag of tasks per priority class p >> Delta and serves
// the lowest class first; inside a class there is no order. PMOD is OBIM
// with Adaptive set, which moves Delta while it runs.
func ExampleNewOBIM() {
	w := smq.NewOBIM[int](smq.OBIMConfig{Workers: 1, Delta: 4}).Worker(0)
	for _, p := range []uint64{40, 3, 17, 35, 1, 20} {
		w.Push(p, int(p))
	}
	var classes []uint64
	for {
		p, _, ok := w.Pop()
		if !ok {
			break
		}
		classes = append(classes, p>>4)
	}
	fmt.Println("classes:", classes)

	g := smq.GenerateRoadGrid(24, 24, 42)
	pmod := smq.NewOBIM[uint32](smq.OBIMConfig{Workers: 2, Adaptive: true})
	dist, _ := smq.SSSP(g, 0, pmod)
	fmt.Println("pmod matches Dijkstra:", slices.Equal(dist, smq.DijkstraSeq(g, 0)))
	// Output:
	// classes: [0 0 1 1 2 2]
	// pmod matches Dijkstra: true
}

// The lock-free CBPQ is exact at any worker count: a task pushed through
// one worker's handle is popped in priority order through another's. A
// small ChunkCap makes the pushes split chunks.
func ExampleNewCBPQ() {
	s := smq.NewCBPQ[int](smq.CBPQConfig{Workers: 2, ChunkCap: 4})
	in, out := s.Worker(0), s.Worker(1)
	for p := uint64(10); p >= 1; p-- {
		in.Push(p, int(p))
	}
	var got []uint64
	for {
		p, _, ok := out.Pop()
		if !ok {
			break
		}
		got = append(got, p)
	}
	fmt.Println(got)
	// Output: [1 2 3 4 5 6 7 8 9 10]
}

// Shortest paths over the SMQ match Dijkstra exactly: relaxation affects
// only how much work is wasted, never the result.
func ExampleSSSP() {
	g, _ := smq.BuildGraph(3, []smq.GraphEdge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 0, V: 2, W: 7}, // the direct road loses to the detour
	}, nil)
	spec, _ := smq.LookupSpec[uint32]("smq")
	dist, _ := smq.SSSP(g, 0, spec.Make(2, 1))
	fmt.Println(dist)
	// Output: [0 1 3]
}

// BFS levels are hop counts, whatever the edge weights.
func ExampleBFS() {
	g, _ := smq.BuildGraph(4, []smq.GraphEdge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 1},
		{U: 0, V: 2, W: 9},
		{U: 2, V: 3, W: 1},
	}, nil)
	spec, _ := smq.LookupSpec[uint32]("smq")
	levels, _ := smq.BFS(g, 0, spec.Make(2, 1))
	fmt.Println(levels)
	// Output: [0 1 1 2]
}

// A* from corner to corner of a road grid, guided by the coordinate
// heuristic, finds the distance sequential Dijkstra does.
func ExampleAStar() {
	g := smq.GenerateRoadGrid(32, 32, 7)
	target := uint32(g.N - 1)
	spec, _ := smq.LookupSpec[uint32]("smq")
	d, _ := smq.AStar(g, 0, target, spec.Make(2, 1))
	fmt.Println(d == smq.DijkstraSeq(g, 0)[target])
	// Output: true
}

// Borůvka's MST over a relaxed scheduler: the forest's weight and edge
// count do not depend on the order the components merge in.
func ExampleBoruvkaMST() {
	g := smq.GenerateRoadGrid(32, 32, 11)
	spec, _ := smq.LookupSpec[uint32]("smq")
	weight, edges, _ := smq.BoruvkaMST(g, spec.Make(2, 1))
	fmt.Println(weight, edges)
	// Output: 113146 1023
}

// The k-nearest-neighbour graph has k out-edges per point, for every
// scheduler and interleaving.
func ExampleKNNGraph() {
	ps := smq.GenerateGaussianClusters(2000, 2, 8, 0.02, 7)
	spec, _ := smq.LookupSpec[uint32]("smq")
	g, _ := smq.KNNGraph(ps, 8, spec.Make(2, 1))
	fmt.Println(g.N, g.M())
	// Output: 2000 16000
}

// The exact Euclidean MST over a relaxed scheduler matches the
// sequential O(n²) Prim baseline.
func ExampleEuclideanMST() {
	ps := smq.GenerateUniformPoints(2000, 2, 7)
	spec, _ := smq.LookupSpec[uint32]("smq")
	weight, edges, _ := smq.EuclideanMST(ps, 8, spec.Make(2, 1))
	wantW, wantE := smq.EuclideanMSTSeq(ps)
	fmt.Println(edges, weight == wantW && edges == wantE)
	// Output: 1999 true
}

// Residual PageRank settles high-residual vertices first. The ranks
// depend on the order residuals are pushed in only below the settling
// threshold, so the total rank mass agrees to within it.
func ExampleResidualPageRank() {
	g := smq.GenerateRMAT(10, 8, 3)
	spec, _ := smq.LookupSpec[uint32]("smq")
	pr, _ := smq.ResidualPageRank(g, smq.PageRankConfig{Epsilon: 1e-7}, spec.Make(2, 1))
	var mass float64
	for _, r := range pr {
		mass += r
	}
	fmt.Printf("mean rank: %.4f\n", mass/float64(g.N))
	// Output: mean rank: 0.6587
}

// The rank model validates Theorem 1: with constant stealing probability
// the mean removed rank stays within the theorem's O(n/p·log(1/p)) bound.
func ExampleRunRankModel() {
	res := smq.RunRankModel(smq.RankModelConfig{
		Queues:    16,
		Elements:  100000,
		StealProb: 0.25,
		Seed:      1,
	})
	bound := smq.RankTheoremBound(16, 1, 0.25, 0)
	fmt.Println("within bound:", res.MeanRemovedRank < bound)
	// Output: within bound: true
}
