package algos

import (
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/sched"
)

// EuclideanMST computes the exact minimum spanning tree of a point set
// under quantized Euclidean distances (geom.Weight), returning the
// total weight, the edge count (always n-1 for n >= 1: the implicit
// complete graph is connected), and the combined accounting of both
// parallel phases.
//
// Phase 1 builds the k-NN candidate rows with the scheduler-driven
// radius expansion of KNNGraph. Phase 2 runs Boruvka-style component
// contraction over the *implicit complete graph*: a component's minimum
// outgoing edge is found by advancing each member point's cursor
// through its sorted candidate row past intra-component entries
// (components only grow, so skipped entries stay internal forever).
// When a point exhausts its row with every candidate internal, the
// widen-radius fallback runs a component-filtered kd-tree nearest query
// whose search radius shrinks as candidates are found, so the first
// external candidate is always the point's true nearest outside point.
// Every contraction therefore commits a cut-minimal edge of the
// complete graph, which makes the result the exact EMST — matching the
// sequential O(n^2) Prim baseline (PrimEMSTSeq) in weight and edge
// count, since all minimum spanning trees of a graph share the same
// total weight.
//
// Task priorities in phase 2 are component sizes (small components
// merge first), mirroring BoruvkaMST's degree-based priorities.
func EuclideanMST(ps *geom.PointSet, k int, s sched.Scheduler[uint32]) (uint64, int, Result) {
	n := ps.N()
	rows, tree, knnRes := knnRows(ps, k, s)
	if n <= 1 {
		return 0, 0, knnRes
	}

	parent := make([]atomic.Uint32, n)
	locks := make([]sync.Mutex, n)
	// Per-point cursor state into the candidate rows. cand[i] and pos[i]
	// are only touched while holding the lock of point i's current
	// component root.
	cand := rows
	pos := make([]int, n)
	// members[r] chains the point ids of the component rooted at r; only
	// accessed while holding locks[r].
	members := make([]*memberChain, n)
	for i := 0; i < n; i++ {
		parent[i].Store(uint32(i))
		members[i] = &memberChain{ids: []uint32{uint32(i)}, size: 1}
		members[i].tail = members[i]
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

	// nearestExternal returns point i's closest neighbor outside the
	// component rooted at root. The phase-1 k-NN row serves as a cheap
	// cache: its cursor advances past intra-component entries, which
	// stay internal forever because components only grow. Once the row
	// is exhausted, the widen-radius fallback runs a component-filtered
	// kd-tree nearest query — exact by the same (distance, index) order
	// — and caches the result as a one-entry row, re-queried only after
	// the cached point itself gets absorbed. ok=false means no external
	// point exists (the component spans the whole set) — unreachable in
	// practice because whole-set components short-circuit before the
	// member scan, but kept for safety.
	isInternal := func(root uint32) func(int32) bool {
		return func(j int32) bool { return find(uint32(j)) == root }
	}
	nearestExternal := func(i int, root uint32) (geom.Neighbor, bool) {
		row := cand[i]
		for pos[i] < len(row) && find(uint32(row[pos[i]].Idx)) == root {
			pos[i]++
		}
		if pos[i] < len(row) {
			return row[pos[i]], true
		}
		nb, ok := tree.NearestFiltered(ps.At(i), int32(i), isInternal(root))
		if !ok {
			return geom.Neighbor{}, false
		}
		cand[i] = append(cand[i][:0], nb)
		pos[i] = 0
		return nb, true
	}

	// minOut scans the component rooted at r for its minimum outgoing
	// edge of the complete graph. Must be called with locks[r] held; the
	// cut {component} vs rest is then stable, so the choice stays
	// cut-minimal until the lock is released. Cursor advances persist,
	// so the scan is amortized O(members) per call.
	minOut := func(r uint32) (best geom.Neighbor, bestW uint32, found bool) {
		var bestSrc uint32
		for link := members[r]; link != nil; link = link.next {
			for _, i := range link.ids {
				nb, ok := nearestExternal(int(i), r)
				if !ok {
					continue
				}
				nw := geom.Weight(nb.D2)
				if !found || nw < bestW || (nw == bestW && (nb.Idx < best.Idx || (nb.Idx == best.Idx && i < bestSrc))) {
					best, bestSrc, bestW, found = nb, i, nw, true
				}
			}
		}
		return best, bestW, found
	}

	var totalWeight atomic.Uint64
	var totalEdges atomic.Int64

	var pending sched.Pending
	pending.Inc(int64(n))
	for i := 0; i < n; i++ {
		s.Worker(i%s.Workers()).Push(1, uint32(i))
	}

	// Contraction locking differs from BoruvkaMST's try-lock-and-requeue
	// discipline: the minimum-outgoing scans here are long enough that
	// requeue-on-contention degenerates into retry storms — two large
	// components whose minimum edges point at each other re-enqueue
	// against each other's held locks in lockstep (especially under the
	// SMQ, whose local queues replay the retry instantly). Instead both
	// root locks are taken blocking in increasing root-id order, which
	// is deadlock-free, and every re-acquisition re-validates roots and
	// recomputes the minimum edge, so each loop iteration either commits
	// a merge or observes another worker's committed merge — global
	// progress without a single scheduler retry.
	tasks, wasted, elapsed := drive(s, &pending,
		func(_ int, out *sched.Sink[uint32], _ uint64, r uint32) bool {
			if find(r) != r {
				return true // component was absorbed; task is stale
			}
			locks[r].Lock()
			if find(r) != r {
				locks[r].Unlock()
				return true // absorbed while waiting for our own lock
			}
			for {
				if members[r].size == n {
					// The component spans the whole point set: the
					// spanning tree is complete. Short-circuiting avoids
					// widening every member's candidate row to saturation
					// just to discover that no external point exists.
					locks[r].Unlock()
					return false
				}
				best, bestW, found := minOut(r)
				if !found {
					locks[r].Unlock()
					return false
				}
				t := find(uint32(best.Idx))
				if t > r {
					locks[t].Lock()
					if find(uint32(best.Idx)) != t {
						// t was absorbed elsewhere in the meantime (global
						// progress); re-derive the target.
						locks[t].Unlock()
						continue
					}
				} else {
					// Re-acquire in increasing order. While r is unlocked
					// it may itself be absorbed (task turns stale) or may
					// absorb others (its minimum edge may change), so
					// everything is re-validated afterwards.
					locks[r].Unlock()
					locks[t].Lock()
					locks[r].Lock()
					if find(r) != r {
						locks[t].Unlock()
						locks[r].Unlock()
						return true
					}
					if find(uint32(best.Idx)) != t {
						locks[t].Unlock()
						continue
					}
					best2, bestW2, found2 := minOut(r)
					if !found2 || find(uint32(best2.Idx)) != t {
						// The minimum moved to another component while r
						// was unlocked; drop t and start over.
						locks[t].Unlock()
						continue
					}
					bestW = bestW2
				}
				// Contract: r absorbs t (both roots locked, as in
				// BoruvkaMST); the committed edge is cut-minimal for r's
				// component at commit time.
				parent[t].Store(r)
				members[r].meld(members[t])
				members[t] = nil
				totalWeight.Add(uint64(bestW))
				totalEdges.Add(1)
				locks[t].Unlock()
				mergedSize := uint64(members[r].size)
				locks[r].Unlock()
				out.Push(mergedSize, r)
				return false
			}
		})

	res := Result{
		Tasks:    knnRes.Tasks + tasks,
		Wasted:   knnRes.Wasted + wasted,
		Duration: knnRes.Duration + elapsed,
		Sched:    s.Stats(),
	}
	return totalWeight.Load(), int(totalEdges.Load()), res
}

// memberChain is a meldable list of component member point ids, the
// geometric counterpart of BoruvkaMST's edgeChain. Only head links keep
// size and tail current; melded-in heads go stale, which is fine
// because a chain is only ever entered through its component's head.
type memberChain struct {
	ids  []uint32
	next *memberChain
	tail *memberChain // last link (maintained on heads only)
	size int          // total ids across the chain
}

// meld appends other's chain to c in O(1) via the tail pointer.
func (c *memberChain) meld(other *memberChain) {
	if other == nil {
		return
	}
	c.tail.next = other
	c.tail = other.tail
	c.size += other.size
}
