package algos

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/sched"
)

// AStar computes the shortest distance from src to target guided by the
// admissible coordinate heuristic (the paper's A* benchmark, which uses
// the equirectangular approximation on road graphs). It returns
// Unreachable when no path exists.
//
// Task priorities are f = g + h values. Two pruning rules bound the
// wasted work: a popped task whose f exceeds the vertex's current g + h
// is stale, and any task whose f is not below the best known distance to
// the target cannot improve the answer.
func AStar(g *graph.CSR, src, target uint32, s sched.Scheduler[uint32]) (uint64, Result) {
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	best := uint64(Unreachable) // best known complete path weight

	var pending sched.Pending
	pending.Inc(1)
	s.Worker(0).Push(g.Heuristic(src, target), src)

	tasks, wasted, elapsed := drive(s, &pending,
		func(_ int, out *sched.Sink[uint32], f uint64, u uint32) bool {
			gu := atomic.LoadUint64(&dist[u])
			if gu == Unreachable {
				return true
			}
			hu := g.Heuristic(u, target)
			if f > gu+hu {
				return true // stale: u was improved after this push
			}
			if gu+hu >= atomic.LoadUint64(&best) {
				return true // cannot beat the best complete path
			}
			if u == target {
				relaxMin(&best, gu)
				return false
			}
			ts, ws := g.Neighbors(u)
			for i, v := range ts {
				nd := gu + uint64(ws[i])
				if nd >= atomic.LoadUint64(&best) {
					continue
				}
				if relaxMin(&dist[v], nd) {
					fv := nd + g.Heuristic(v, target)
					if fv < atomic.LoadUint64(&best) || v == target {
						out.Push(fv, v)
					}
				}
			}
			return false
		})

	return dist[target], Result{Tasks: tasks, Wasted: wasted, Duration: elapsed, Sched: s.Stats()}
}
