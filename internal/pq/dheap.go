package pq

import "math/bits"

// DHeap is a sequential d-ary min-heap. The paper's SMQ uses d = 4
// thread-local heaps (§4): a wider fan-out shortens the sift-down path and
// keeps more of each level in one cache line, which is why it outperforms
// the binary heap for scheduler-sized workloads (see the ablation benches).
//
// The zero value is not usable; construct with NewDHeap.
type DHeap[T any] struct {
	d     int
	shift uint // log2(d) when d is a power of two, else 0
	items []Item[T]
}

// DefaultArity is the heap fan-out used by the paper's implementation.
const DefaultArity = 4

// NewDHeap returns an empty d-ary heap. It panics if d < 2.
func NewDHeap[T any](d int) *DHeap[T] {
	if d < 2 {
		panic("pq: heap arity must be >= 2")
	}
	h := &DHeap[T]{d: d}
	if d&(d-1) == 0 {
		// Power-of-two arity (the common case: the paper's d = 4 and the
		// engineered MultiQueue's d = 8): parent/child index arithmetic
		// can shift instead of paying a hardware divide in the sift-up
		// loop, which is hot enough for that to matter.
		for 1<<h.shift < d {
			h.shift++
		}
	}
	return h
}

// NewDHeapCap returns an empty d-ary heap with preallocated capacity.
func NewDHeapCap[T any](d, capacity int) *DHeap[T] {
	h := NewDHeap[T](d)
	h.items = make([]Item[T], 0, capacity)
	return h
}

// Len reports the number of queued tasks.
func (h *DHeap[T]) Len() int { return len(h.items) }

// Top returns the minimum priority, or InfPriority when empty.
func (h *DHeap[T]) Top() uint64 {
	if len(h.items) == 0 {
		return InfPriority
	}
	return h.items[0].P
}

// Push inserts a task.
func (h *DHeap[T]) Push(p uint64, v T) {
	h.items = append(h.items, Item[T]{P: p, V: v})
	h.siftUp(len(h.items) - 1)
}

// PushItem inserts a prepared Item.
func (h *DHeap[T]) PushItem(it Item[T]) {
	h.items = append(h.items, it)
	h.siftUp(len(h.items) - 1)
}

// PushBatch inserts a run of prepared Items. The whole run is appended
// in one grow step and then sifted item by item in index order (each
// sift-up only inspects ancestors, so the not-yet-sifted suffix cannot
// be observed), which replaces per-call append/bounds bookkeeping with
// one slice extension — the batched-insert primitive behind PushN.
func (h *DHeap[T]) PushBatch(items []Item[T]) {
	if len(items) == 0 {
		return
	}
	start := len(h.items)
	h.items = append(h.items, items...)
	for i := start; i < len(h.items); i++ {
		h.siftUp(i)
	}
}

// PushPairs inserts the parallel-slice batch ps[i]/vs[i] — the bulk
// Worker.PushN arrives in exactly this shape, so schedulers whose
// critical section is the insertion itself (the coarse global heap)
// can skip the zip into an Item scratch entirely. Both slices must
// have equal length (the caller validates).
func (h *DHeap[T]) PushPairs(ps []uint64, vs []T) {
	if len(ps) == 0 {
		return
	}
	start := len(h.items)
	for i, p := range ps {
		h.items = append(h.items, Item[T]{P: p, V: vs[i]})
	}
	for i := start; i < len(h.items); i++ {
		h.siftUp(i)
	}
}

// Pop removes and returns the minimum-priority task.
func (h *DHeap[T]) Pop() (p uint64, v T, ok bool) {
	if len(h.items) == 0 {
		return InfPriority, v, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	moved := h.items[last]
	// Clear the vacated slot so payloads don't pin garbage.
	var zero Item[T]
	h.items[last] = zero
	h.items = h.items[:last]
	if last > 0 {
		// Sift the displaced tail element down from the root directly;
		// writing it to items[0] first would just be re-read by the sift.
		h.siftDownItem(0, moved)
	}
	return top.P, top.V, true
}

// PopBatch removes up to k minimum-priority tasks in priority order,
// appending them to dst, and returns the extended slice. This is the
// extractTopB / steal(k) primitive of Listings 3 and 4.
//
// It is a true batch primitive, not a loop of Pop: the heap length is
// tracked in a local across the k extractions (one slice-header store
// at the end instead of one per task) and the vacated tail is zeroed
// in one clear (a memclr) rather than one write per pop. On the
// scheduler batch paths every popped task pays one sift-down either
// way, so these fixed costs are exactly what distinguishes a batched
// delete from k scalar ones.
func (h *DHeap[T]) PopBatch(k int, dst []Item[T]) []Item[T] {
	n := len(h.items)
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	items := h.items
	for j := 0; j < k; j++ {
		dst = append(dst, items[0])
		last := n - 1 - j
		if last > 0 {
			h.siftDownItemN(0, items[last], last)
		}
	}
	clear(items[n-k:])
	h.items = items[:n-k]
	return dst
}

// Clear removes all tasks, retaining capacity.
func (h *DHeap[T]) Clear() {
	clear(h.items)
	h.items = h.items[:0]
}

// Sift-down picks the best child without a branch. Which sibling is
// smallest is a coin flip the predictor cannot learn: written as
// `if p < bestP`, the scan mispredicts about once per level, and that was
// a third of SMQ's cycles on SSSP. The select below is a data dependency
// instead. Measured on the 2-core host, hold pattern, d = 4, 16-byte
// items, ns per pop+push pair (BenchmarkLocalQueue_DHeap4): 2^10 resident
// 90 -> 54, 2^13 121 -> 74, 2^16 141 -> 84; d = 2 and d = 8 gain the same
// way, so there is one loop for every arity.
//
// It loses where the branch used to win: each level's address now waits
// for the previous level's loads, whereas the branchy scan ran ahead down
// the predicted child and overlapped their cache misses. On a heap another
// core wrote last (every level a coherence miss) that overlap was worth
// more than the mispredictions cost: -11% on the bench's hold workload for
// mq (3.22 -> 2.86 M pairs/s) while its heap headers were separate
// allocations, and -8% for coarse's one shared heap, which is still owed.
// mq now keeps the header in the lock's line (see mq.lockQueue), which
// repaid its share; a structure whose nodes are mostly remote misses,
// such as cbpq's chunks, should not copy this loop.
//
// The borrow of a 64-bit subtract is exact over the whole uint64 range
// and keeps the strict-less tie-break (the first of equal siblings wins),
// so pop sequences are unchanged; the sign of p-bestP is not, see
// TestDHeapMatchesReferenceSiftDown.

func (h *DHeap[T]) siftUp(i int) {
	items := h.items
	it := items[i]
	if shift := h.shift; shift != 0 {
		for i > 0 {
			parent := (i - 1) >> shift
			if items[parent].P <= it.P {
				break
			}
			items[i] = items[parent]
			i = parent
		}
	} else {
		d := h.d
		for i > 0 {
			parent := (i - 1) / d
			if items[parent].P <= it.P {
				break
			}
			items[i] = items[parent]
			i = parent
		}
	}
	items[i] = it
}

// siftDownItem sifts it down from position i. The slot at i is treated
// as vacant: Pop passes the element displaced from the tail, which
// logically replaces it.
func (h *DHeap[T]) siftDownItem(i int, it Item[T]) {
	h.siftDownItemN(i, it, len(h.items))
}

// siftDownItemN is siftDownItem over the logical prefix items[:n] —
// PopBatch shrinks the heap k times without re-slicing the backing
// header per pop, so the live length arrives as an argument.
func (h *DHeap[T]) siftDownItemN(i int, it Item[T], n int) {
	items := h.items
	d := h.d
	for {
		first := i*d + 1
		if first >= n {
			break
		}
		end := first + d
		if end > n {
			end = n
		}
		best := first
		bestP := items[first].P
		for c := first + 1; c < end; c++ {
			p := items[c].P
			_, lt := bits.Sub64(p, bestP, 0) // the borrow: 1 iff p < bestP
			bestP ^= (bestP ^ p) & -lt
			best ^= (best ^ c) & -int(lt)
		}
		if bestP >= it.P {
			break
		}
		items[i] = items[best]
		i = best
	}
	items[i] = it
}

var _ Queue[int] = (*DHeap[int])(nil)
