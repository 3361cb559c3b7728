package algos

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sched"
)

// Unreachable is the distance reported for vertices not reachable from
// the source.
const Unreachable = pq.InfPriority

// SSSP computes single-source shortest paths over a relaxed scheduler
// (the paper's primary benchmark). Tasks are (tentative distance, vertex)
// pairs; a popped task is stale when the vertex already has a smaller
// distance — the classic wasted-work mode of relaxed priority scheduling.
func SSSP(g *graph.CSR, src uint32, s sched.Scheduler[uint32]) ([]uint64, Result) {
	return shortestPaths(g, src, s, false)
}

// BFS computes hop distances by running the same driver with unit edge
// weights (the paper's BFS benchmark: "the weight of each edge is 1").
func BFS(g *graph.CSR, src uint32, s sched.Scheduler[uint32]) ([]uint64, Result) {
	return shortestPaths(g, src, s, true)
}

func shortestPaths(g *graph.CSR, src uint32, s sched.Scheduler[uint32], unitWeights bool) ([]uint64, Result) {
	// Plain stores: the go statements of sched.Run order them before
	// every worker's first atomic access, and Run's return orders the
	// workers' last CAS before dist is handed back as it is.
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0

	var pending sched.Pending
	pending.Inc(1)
	s.Worker(0).Push(0, src)

	tasks, wasted, elapsed := drive(s, &pending,
		func(_ int, out *sched.Sink[uint32], p uint64, u uint32) bool {
			du := atomic.LoadUint64(&dist[u])
			if p > du {
				return true // stale: u was improved after this push
			}
			ts, ws := g.Neighbors(u)
			for i, v := range ts {
				wt := uint64(ws[i])
				if unitWeights {
					wt = 1
				}
				nd := du + wt
				if relaxMin(&dist[v], nd) {
					// All relaxations of this expansion leave as one batch;
					// the driver owns the (delta-batched) Pending account.
					out.Push(nd, v)
				}
			}
			return false
		})

	return dist, Result{Tasks: tasks, Wasted: wasted, Duration: elapsed, Sched: s.Stats()}
}

// relaxMin lowers *d to nd if nd improves it, returning whether it did.
// Workers call it concurrently on the same words.
func relaxMin(d *uint64, nd uint64) bool {
	for {
		old := atomic.LoadUint64(d)
		if nd >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(d, old, nd) {
			return true
		}
	}
}
