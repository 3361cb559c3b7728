package algos

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sched"
)

// KNNGraph builds the directed k-nearest-neighbour graph of a point set
// over a relaxed scheduler: vertex v's adjacency lists its k nearest
// points sorted by (distance, index), with edge weights quantized by
// geom.Weight.
//
// Each task is "resolve vertex v's k-th neighbour at the current search
// radius": processing runs a bounded-radius kd-tree query and either
// finalizes v's row (>= k candidates found) or doubles the radius and
// re-enqueues v with priority equal to the quantized radius — a lower
// bound on v's k-th-neighbour distance. Lower priorities run sooner, so
// points in dense regions (small k-th distance) resolve first and the
// expansion sweeps outward by distance, the task-generation pattern of
// the classic relaxed-PQ k-NN workload (Rihani et al. 2014). The result
// is deterministic — identical to KNNGraphSeq — for every scheduler.
func KNNGraph(ps *geom.PointSet, k int, s sched.Scheduler[uint32]) (*graph.CSR, Result) {
	rows, _, res := knnRows(ps, k, s)
	return knnCSR(ps, rows), res
}

// knnRows runs the parallel k-NN resolution and returns the per-vertex
// sorted neighbor rows plus the kd-tree (for callers that keep
// querying, like EuclideanMST's widen-radius fallback).
func knnRows(ps *geom.PointSet, k int, s sched.Scheduler[uint32]) ([][]geom.Neighbor, *geom.KDTree, Result) {
	n := ps.N()
	tree := geom.NewKDTree(ps)
	if k > n-1 {
		k = n - 1
	}
	rows := make([][]geom.Neighbor, n)
	if n == 0 || k <= 0 {
		return rows, tree, Result{Sched: s.Stats()}
	}

	// Initial radius from the mean point density (a ball expected to
	// hold ~k+1 points), shrunk 4x: starting below the uniform estimate
	// costs sparse points a couple of cheap extra widening rounds, while
	// starting above it makes every point of a dense cluster collect and
	// sort the whole cluster in one oversized query. Coincident point
	// sets (zero extent) resolve at any radius because all other points
	// sit at distance zero.
	r0 := ps.Extent() * math.Pow(float64(k+1)/float64(n), 1/float64(ps.Dim)) / 4
	if r0 <= 0 {
		r0 = 1
	}
	// radius[v] is v's current search radius. It is only accessed by the
	// holder of v's task; the scheduler's push/pop handoff orders the
	// accesses of consecutive task generations (same discipline as the
	// per-component state in BoruvkaMST).
	radius := make([]float64, n)
	for i := range radius {
		radius[i] = r0
	}

	var pending sched.Pending
	pending.Inc(int64(n))
	p0 := uint64(geom.Weight(r0 * r0))
	for i := 0; i < n; i++ {
		s.Worker(i%s.Workers()).Push(p0, uint32(i))
	}

	// Per-worker scratch buffers for radius-query results.
	scratch := make([][]geom.Neighbor, s.Workers())

	tasks, wasted, elapsed := drive(s, &pending,
		func(wid int, out *sched.Sink[uint32], _ uint64, v uint32) bool {
			r := radius[v]
			cand := tree.AppendWithin(ps.At(int(v)), r*r, int32(v), scratch[wid][:0])
			scratch[wid] = cand
			if len(cand) < k {
				// Too few neighbors inside the ball: widen and retry
				// later, after the still-cheap dense tasks.
				r *= 2
				radius[v] = r
				out.Push(uint64(geom.Weight(r*r)), v)
				return false
			}
			sort.Slice(cand, func(a, b int) bool {
				if cand[a].D2 != cand[b].D2 {
					return cand[a].D2 < cand[b].D2
				}
				return cand[a].Idx < cand[b].Idx
			})
			rows[v] = append([]geom.Neighbor(nil), cand[:k]...)
			return false
		})
	return rows, tree, Result{Tasks: tasks, Wasted: wasted, Duration: elapsed, Sched: s.Stats()}
}

// knnCSR assembles the adjacency rows into a CSR graph, attaching
// planar coordinates for 2-dimensional point sets.
func knnCSR(ps *geom.PointSet, rows [][]geom.Neighbor) *graph.CSR {
	n := ps.N()
	if n == 0 {
		return &graph.CSR{N: 0, Offsets: make([]int64, 1)}
	}
	edges := make([]graph.Edge, 0, n*len(rows[0]))
	for v := range rows {
		for _, nb := range rows[v] {
			edges = append(edges, graph.Edge{U: uint32(v), V: uint32(nb.Idx), W: geom.Weight(nb.D2)})
		}
	}
	var coords []graph.Coord
	if ps.Dim == 2 {
		coords = make([]graph.Coord, n)
		for i := range coords {
			p := ps.At(i)
			coords[i] = graph.Coord{X: p[0], Y: p[1]}
		}
	}
	return graph.MustBuild(n, edges, coords)
}
