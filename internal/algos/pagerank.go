package algos

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/sched"
)

// PageRankConfig parameterizes ResidualPageRank.
type PageRankConfig struct {
	// Damping is the PageRank damping factor. Default 0.85.
	Damping float64
	// Epsilon is the residual threshold below which a vertex is settled.
	// Default 1e-6.
	Epsilon float64
}

func (c *PageRankConfig) normalize() {
	if c.Damping <= 0 || c.Damping >= 1 {
		c.Damping = 0.85
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-6
	}
}

// ResidualPageRank computes PageRank by residual propagation ("push"
// style) over a relaxed priority scheduler. This is the paper's §6
// extension direction — iterative machine-learning-style algorithms under
// relaxed scheduling (cf. Aksenov et al. [2]): processing high-residual
// vertices first converges with less total work, so the scheduler's rank
// quality translates directly into fewer tasks.
//
// Priorities order vertices by descending residual (quantized), so a
// better scheduler drains large residuals sooner.
func ResidualPageRank(g *graph.CSR, cfg PageRankConfig, s sched.Scheduler[uint32]) ([]float64, Result) {
	cfg.normalize()
	n := g.N
	rank := make([]atomic.Uint64, n)  // float64 bits
	resid := make([]atomic.Uint64, n) // float64 bits
	queued := make([]atomic.Bool, n)

	base := 1 - cfg.Damping
	for i := 0; i < n; i++ {
		rank[i].Store(math.Float64bits(0))
		resid[i].Store(math.Float64bits(base))
	}

	var pending sched.Pending
	// Seed every vertex (all start with residual 1-d >= eps).
	pending.Inc(int64(n))
	for i := 0; i < n; i++ {
		queued[i].Store(true)
		s.Worker(i%s.Workers()).Push(residPriority(base), uint32(i))
	}

	addFloat := func(a *atomic.Uint64, delta float64) float64 {
		for {
			old := a.Load()
			nv := math.Float64frombits(old) + delta
			if a.CompareAndSwap(old, math.Float64bits(nv)) {
				return nv
			}
		}
	}

	tasks, wasted, elapsed := drive(s, &pending,
		func(_ int, out *sched.Sink[uint32], _ uint64, u uint32) bool {
			queued[u].Store(false)
			r := math.Float64frombits(resid[u].Swap(math.Float64bits(0)))
			if r < cfg.Epsilon {
				return true // settled in the meantime
			}
			addFloat(&rank[u], r)
			deg := g.OutDegree(u)
			if deg == 0 {
				return false // dangling vertex: mass is dropped, as in push-PageRank
			}
			share := cfg.Damping * r / float64(deg)
			ts, _ := g.Neighbors(u)
			for _, v := range ts {
				nr := addFloat(&resid[v], share)
				if nr >= cfg.Epsilon && queued[v].CompareAndSwap(false, true) {
					out.Push(residPriority(nr), v)
				}
			}
			return false
		})

	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(rank[i].Load()) + math.Float64frombits(resid[i].Load())
	}
	return out, Result{Tasks: tasks, Wasted: wasted, Duration: elapsed, Sched: s.Stats()}
}

// residPriority maps a residual to a priority: larger residuals first.
func residPriority(r float64) uint64 {
	if r <= 0 {
		return uint64(1) << 62
	}
	// -log2(r) grows as r shrinks; scale for resolution.
	p := math.Log2(1/r) * 1024
	if p < 0 {
		p = 0
	}
	return uint64(p)
}
