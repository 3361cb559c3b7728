package algos

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/sched"
)

// SSSPDelta is delta-stepping-style SSSP: task priorities are bucketized
// distances (dist >> shift), matching the Galois SSSP implementation the
// paper benchmarks ("The Galois implementation of SSSP based on
// delta-stepping", §5). Coarser buckets (larger shift) admit more
// parallelism inside a bucket at the cost of extra wasted work — the same
// trade-off OBIM's Δ exposes, but expressed in the task priorities so any
// scheduler can run it.
//
// shift = 0 degenerates to plain SSSP priorities.
func SSSPDelta(g *graph.CSR, src uint32, shift uint, s sched.Scheduler[uint32]) ([]uint64, Result) {
	if shift > 63 {
		shift = 63
	}
	dist := make([]atomic.Uint64, g.N)
	for i := range dist {
		dist[i].Store(Unreachable)
	}
	dist[src].Store(0)

	var pending sched.Pending
	pending.Inc(1)
	s.Worker(0).Push(0, src)

	tasks, wasted, elapsed := drive(s, &pending,
		func(_ int, out *sched.Sink[uint32], p uint64, u uint32) bool {
			du := dist[u].Load()
			if du == Unreachable || p > du>>shift {
				return true // stale: u was improved past this bucket
			}
			ts, ws := g.Neighbors(u)
			for i, v := range ts {
				nd := du + uint64(ws[i])
				if relaxMin(&dist[v], nd) {
					out.Push(nd>>shift, v)
				}
			}
			return false
		})

	out := make([]uint64, g.N)
	for i := range out {
		out[i] = dist[i].Load()
	}
	return out, Result{Tasks: tasks, Wasted: wasted, Duration: elapsed, Sched: s.Stats()}
}
