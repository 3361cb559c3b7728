package algos

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pq"
)

// SeqResult reports a sequential baseline's task count (heap pops,
// including stale lazy-deletion entries) so parallel runs can compute
// work increase against it.
type SeqResult struct {
	Tasks uint64
}

// DijkstraSeq is the sequential priority-queue baseline of the paper's
// Tables 2–3 ("sequential priority queue execution on a single thread"):
// Dijkstra with lazy deletion on a binary heap.
func DijkstraSeq(g *graph.CSR, src uint32) ([]uint64, SeqResult) {
	return dijkstraSeq(g, src, false)
}

// BFSSeqPQ runs the unit-weight variant through the same priority queue,
// matching how the paper's BFS benchmark drives schedulers.
func BFSSeqPQ(g *graph.CSR, src uint32) ([]uint64, SeqResult) {
	return dijkstraSeq(g, src, true)
}

func dijkstraSeq(g *graph.CSR, src uint32, unitWeights bool) ([]uint64, SeqResult) {
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	h := pq.NewDHeapCap[uint32](2, 1024)
	h.Push(0, src)
	tasks := uint64(0)
	for {
		d, u, ok := h.Pop()
		if !ok {
			break
		}
		tasks++
		if d > dist[u] {
			continue // stale entry
		}
		ts, ws := g.Neighbors(u)
		for i, v := range ts {
			wt := uint64(ws[i])
			if unitWeights {
				wt = 1
			}
			if nd := d + wt; nd < dist[v] {
				dist[v] = nd
				h.Push(nd, v)
			}
		}
	}
	return dist, SeqResult{Tasks: tasks}
}

// AStarSeq is the sequential A* baseline, returning the src→target
// distance (Unreachable when no path exists).
func AStarSeq(g *graph.CSR, src, target uint32) (uint64, SeqResult) {
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	h := pq.NewDHeapCap[uint32](2, 1024)
	h.Push(g.Heuristic(src, target), src)
	tasks := uint64(0)
	for {
		f, u, ok := h.Pop()
		if !ok {
			break
		}
		tasks++
		gu := dist[u]
		if f > gu+g.Heuristic(u, target) {
			continue
		}
		if u == target {
			return gu, SeqResult{Tasks: tasks}
		}
		ts, ws := g.Neighbors(u)
		for i, v := range ts {
			if nd := gu + uint64(ws[i]); nd < dist[v] {
				dist[v] = nd
				h.Push(nd+g.Heuristic(v, target), v)
			}
		}
	}
	return dist[target], SeqResult{Tasks: tasks}
}

// KruskalMST is the exact reference for BoruvkaMST: minimum spanning
// forest weight and edge count via sorted edges + union-find. Each
// undirected edge may appear in both directions; the second occurrence
// forms a cycle and is skipped, so no deduplication is needed.
func KruskalMST(g *graph.CSR) (uint64, int) {
	type edge struct {
		w    uint32
		u, v uint32
	}
	edges := make([]edge, 0, g.M())
	for u := 0; u < g.N; u++ {
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			edges = append(edges, edge{w: ws[i], u: uint32(u), v: v})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]uint32, g.N)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	total := uint64(0)
	count := 0
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		total += uint64(e.w)
		count++
	}
	return total, count
}

// KNNGraphSeq is the sequential reference for KNNGraph: one kd-tree
// k-NN query per vertex. Both produce the same deterministic CSR
// (neighbors sorted by distance then index, geom.Weight edge weights),
// so parallel runs can be compared structurally, and Tasks = n gives
// the work-increase baseline.
func KNNGraphSeq(ps *geom.PointSet, k int) (*graph.CSR, SeqResult) {
	n := ps.N()
	if k > n-1 {
		k = n - 1
	}
	rows := make([][]geom.Neighbor, n)
	if n > 0 && k > 0 {
		tree := geom.NewKDTree(ps)
		var buf []geom.Neighbor
		for i := 0; i < n; i++ {
			buf = tree.KNN(ps.At(i), k, int32(i), buf)
			rows[i] = append([]geom.Neighbor(nil), buf...)
		}
	}
	return knnCSR(ps, rows), SeqResult{Tasks: uint64(n)}
}

// PrimEMSTSeq is the exact sequential baseline for EuclideanMST: O(n^2)
// Prim over the implicit complete graph with geom.Weight-quantized edge
// weights, returning total weight and edge count (n-1 for n >= 1).
// Because every minimum spanning tree of a weighted graph has the same
// total weight, the parallel EMST must match both values exactly.
func PrimEMSTSeq(ps *geom.PointSet) (uint64, int) {
	n := ps.N()
	if n <= 1 {
		return 0, 0
	}
	const unvisited = uint32(math.MaxUint32)
	bestW := make([]uint32, n)
	inTree := make([]bool, n)
	for i := range bestW {
		bestW[i] = unvisited
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestW[j] = geom.Weight(ps.Dist2(0, j))
	}
	total := uint64(0)
	for added := 1; added < n; added++ {
		next, nextW := -1, unvisited
		for j := 0; j < n; j++ {
			if !inTree[j] && bestW[j] < nextW {
				next, nextW = j, bestW[j]
			}
		}
		if next < 0 {
			// unvisited is MaxUint32, which geom.Weight can legitimately
			// produce for saturating distances; fall back to the first
			// out-of-tree vertex so such edges still get added.
			for j := 0; j < n; j++ {
				if !inTree[j] {
					next, nextW = j, bestW[j]
					break
				}
			}
		}
		inTree[next] = true
		total += uint64(nextW)
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if w := geom.Weight(ps.Dist2(next, j)); w < bestW[j] {
					bestW[j] = w
				}
			}
		}
	}
	return total, n - 1
}

// PageRankSeq runs the same residual-push PageRank sequentially with a
// FIFO worklist — the deterministic reference for ResidualPageRank.
func PageRankSeq(g *graph.CSR, cfg PageRankConfig) []float64 {
	cfg.normalize()
	n := g.N
	rank := make([]float64, n)
	resid := make([]float64, n)
	queued := make([]bool, n)
	queue := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		resid[i] = 1 - cfg.Damping
		queued[i] = true
		queue = append(queue, uint32(i))
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		queued[u] = false
		r := resid[u]
		resid[u] = 0
		if r < cfg.Epsilon {
			continue
		}
		rank[u] += r
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		share := cfg.Damping * r / float64(deg)
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			resid[v] += share
			if resid[v] >= cfg.Epsilon && !queued[v] {
				queued[v] = true
				queue = append(queue, v)
			}
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = rank[i] + resid[i]
	}
	return out
}

// L1Diff returns the L1 distance between two vectors, for PageRank
// verification.
func L1Diff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	total := 0.0
	for i := range a {
		total += math.Abs(a[i] - b[i])
	}
	return total
}
