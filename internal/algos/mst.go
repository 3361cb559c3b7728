package algos

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/sched"
)

// BoruvkaMST computes a minimum spanning forest weight with Boruvka-style
// component contraction over a relaxed scheduler (the paper's MST
// benchmark: "Boruvka's algorithm ... with task priority equal to the
// degree of the associated vertex"). The input is treated as undirected;
// road graphs built by this repository store both edge directions.
//
// Each task is a component (identified by its union-find root) with
// priority equal to its current candidate-edge count, so small components
// merge first. A task finds its component's minimum-weight outgoing edge
// (the cut property makes it MST-safe), contracts across it, and
// re-enqueues the merged component. Components are protected by per-root
// try-locks; lock misses re-enqueue the task rather than block.
func BoruvkaMST(g *graph.CSR, s sched.Scheduler[uint32]) (uint64, int, Result) {
	n := g.N
	parent := make([]atomic.Uint32, n)
	locks := make([]sync.Mutex, n)
	// comps[r] is the candidate edge chain of the component rooted at r;
	// it is only accessed while holding locks[r].
	comps := make([]*edgeChain, n)
	for i := 0; i < n; i++ {
		parent[i].Store(uint32(i))
		edges := make([]graph.Edge, 0, g.OutDegree(uint32(i)))
		ts, ws := g.Neighbors(uint32(i))
		for j, v := range ts {
			edges = append(edges, graph.Edge{U: uint32(i), V: v, W: ws[j]})
		}
		comps[i] = &edgeChain{edges: edges, count: len(edges)}
	}

	find := func(x uint32) uint32 {
		for {
			p := parent[x].Load()
			if p == x {
				return x
			}
			gp := parent[p].Load()
			if gp != p {
				parent[x].CompareAndSwap(p, gp) // path halving
			}
			x = p
		}
	}

	var totalWeight atomic.Uint64
	var totalEdges atomic.Int64

	var pending sched.Pending
	pending.Inc(int64(n))
	// Seed one task per vertex, distributed across workers.
	for i := 0; i < n; i++ {
		w := s.Worker(i % s.Workers())
		w.Push(uint64(comps[i].count), uint32(i))
	}

	tasks, wasted, elapsed := drive(s, &pending,
		func(_ int, out *sched.Sink[uint32], prio uint64, r uint32) bool {
			root := find(r)
			if root != r {
				return true // component was absorbed; task is stale
			}
			if !locks[r].TryLock() {
				// Busy (a concurrent merge involves us): try again later.
				// Reuse the popped priority — comps[r] may not be read
				// without holding the lock.
				out.Push(prio, r)
				return true
			}
			if find(r) != r {
				// Absorbed between the find and the lock.
				locks[r].Unlock()
				return true
			}
			e, ok := comps[r].minOutgoing(r, find)
			if !ok {
				// No outgoing edges: the component is a finished tree.
				locks[r].Unlock()
				return false
			}
			count := uint64(comps[r].count)
			t := find(e.V)
			if t == r || !locks[t].TryLock() {
				// t changed under us or is busy: retry this component.
				locks[r].Unlock()
				out.Push(count, r)
				return true
			}
			if find(e.V) != t {
				locks[t].Unlock()
				locks[r].Unlock()
				out.Push(count, r)
				return true
			}
			// Contract: r absorbs t. Both roots are locked, so no other
			// worker can merge either side concurrently.
			parent[t].Store(r)
			comps[r].meld(comps[t])
			comps[t] = nil
			totalWeight.Add(uint64(e.W))
			totalEdges.Add(1)
			locks[t].Unlock()
			mergedCount := comps[r].count
			locks[r].Unlock()
			out.Push(uint64(mergedCount), r)
			return false
		})

	res := Result{Tasks: tasks, Wasted: wasted, Duration: elapsed, Sched: s.Stats()}
	return totalWeight.Load(), int(totalEdges.Load()), res
}

// edgeChain is a meldable bag of candidate edges: a list of slices so
// that merging two components is O(1).
type edgeChain struct {
	edges []graph.Edge
	next  *edgeChain
	count int // total edges across the chain (approximate after purges)
}

// meld appends other's chain to c in O(1).
func (c *edgeChain) meld(other *edgeChain) {
	if other == nil {
		return
	}
	tail := c
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = other
	c.count += other.count
}

// minOutgoing scans the chain for the minimum-weight edge leaving the
// component rooted at r, purging intra-component edges as it goes.
func (c *edgeChain) minOutgoing(r uint32, find func(uint32) uint32) (graph.Edge, bool) {
	var best graph.Edge
	found := false
	for link := c; link != nil; link = link.next {
		kept := link.edges[:0]
		for _, e := range link.edges {
			if find(e.V) == r {
				continue // internal edge: discard forever
			}
			kept = append(kept, e)
			if !found || e.W < best.W || (e.W == best.W && e.V < best.V) {
				best = e
				found = true
			}
		}
		link.edges = kept
	}
	// Recompute the candidate count after purging.
	total := 0
	for link := c; link != nil; link = link.next {
		total += len(link.edges)
	}
	c.count = total
	return best, found
}
