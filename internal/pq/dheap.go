package pq

import (
	"math/bits"
	"unsafe"
)

// DHeap is a sequential d-ary min-heap. The paper's SMQ uses d = 4
// thread-local heaps (§4): a wider fan-out shortens the sift-down path and
// keeps more of each level in one cache line, which is why it outperforms
// the binary heap for scheduler-sized workloads (BenchmarkLocalQueue_DHeap2,
// 4 and 8). Here the SMQ's heap sits behind a BucketQueue's window, at
// d = 4, and the Multi-Queues and the sequential baselines use it bare.
//
// The priorities live in an array of their own, apart from the payloads,
// so that a sift compares keys only, and each group of siblings starts on
// a boundary of its own size (see alignedKeys): a d = 4 group is half a
// cache line and never straddles two.
//
// The zero value is not usable; construct with NewDHeap.
type DHeap[T any] struct {
	keys []uint64 // keys[i] is task i's priority; len(keys) is the heap size
	// vals is the payload array, parallel to keys: it has cap(keys)
	// slots, and vals[i] belongs to keys[i] (see values). A bare pointer
	// rather than a slice keeps the header at 40 bytes, which the
	// embedding structs' cache-line layouts count on.
	vals  *T
	d     uint32
	shift uint32 // log2(d) when d is a power of two, else 0
}

// DefaultArity is the heap fan-out used by the paper's implementation.
const DefaultArity = 4

// NewDHeap returns an empty d-ary heap. It panics if d < 2.
func NewDHeap[T any](d int) *DHeap[T] {
	if d < 2 {
		panic("pq: heap arity must be >= 2")
	}
	h := &DHeap[T]{d: uint32(d)}
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
	if capacity > 0 {
		h.reserve(capacity)
	}
	return h
}

// values is the payload array as a slice of cap(keys) slots.
func (h *DHeap[T]) values() []T { return unsafe.Slice(h.vals, cap(h.keys)) }

// reserve makes room for n tasks, moving the heap to new arrays if it
// has fewer slots: at least n, at least twice the old count.
func (h *DHeap[T]) reserve(n int) {
	if n <= cap(h.keys) {
		return
	}
	c := max(n, 2*cap(h.keys), 8)
	keys := alignedKeys(c, int(h.d))[:len(h.keys)]
	copy(keys, h.keys)
	vals := make([]T, c)
	copy(vals, h.values()[:len(h.keys)])
	h.keys, h.vals = keys, unsafe.SliceData(vals)
}

// lineWords is the number of keys in a 64-byte cache line.
const lineWords = 8

// alignedKeys returns an empty key slice of capacity c laid out so that
// the children of every task, keys[i*d+1 : i*d+d+1], start at a multiple
// of d words from a cache-line boundary: the slice begins d-1 words past
// a line start, which makes index i*d+1 sit at line offset (i+1)*d. The
// runtime never moves a heap object, so the alignment found here holds
// for the array's life; every growth allocates and aligns anew.
func alignedKeys(c, d int) []uint64 {
	raw := make([]uint64, c+d-1+lineWords-1)
	skip := (lineWords - int(uintptr(unsafe.Pointer(&raw[0]))/8%lineWords)) % lineWords
	lo := skip + d - 1
	return raw[lo : lo : lo+c]
}

// Len reports the number of queued tasks.
func (h *DHeap[T]) Len() int { return len(h.keys) }

// Top returns the minimum priority, or InfPriority when empty.
func (h *DHeap[T]) Top() uint64 {
	if len(h.keys) == 0 {
		return InfPriority
	}
	return h.keys[0]
}

// Push inserts a task.
func (h *DHeap[T]) Push(p uint64, v T) {
	n := len(h.keys)
	h.reserve(n + 1)
	h.keys = h.keys[:n+1]
	h.siftUp(n, p, v)
}

// PushItem inserts a prepared Item.
func (h *DHeap[T]) PushItem(it Item[T]) { h.Push(it.P, it.V) }

// PushPairs inserts the parallel-slice batch ps[i]/vs[i], the shape in
// which Worker.PushN delivers a bulk insert, so no caller zips the pairs
// into Items first. Room for the whole batch is made in one step and the
// pairs are then sifted up one by one in index order (each sift-up only
// inspects ancestors, so the arrangement is the one a loop of Push
// builds), which replaces per-call growth checks with one. Both slices
// must have equal length (the caller validates).
func (h *DHeap[T]) PushPairs(ps []uint64, vs []T) {
	n := len(h.keys)
	h.reserve(n + len(ps))
	h.keys = h.keys[:n+len(ps)]
	for i, p := range ps {
		h.siftUp(n+i, p, vs[i])
	}
}

// Pop removes and returns the minimum-priority task.
func (h *DHeap[T]) Pop() (p uint64, v T, ok bool) {
	n := len(h.keys)
	if n == 0 {
		return InfPriority, v, false
	}
	vals := h.values()[:n]
	p, v = h.keys[0], vals[0]
	last := n - 1
	movedP, movedV := h.keys[last], vals[last]
	// Clear the vacated slot so payloads don't pin garbage.
	var zero T
	vals[last] = zero
	h.keys = h.keys[:last]
	if last > 0 {
		// Sift the displaced tail element down from the root directly;
		// writing it to slot 0 first would just be re-read by the sift.
		h.siftDown(movedP, movedV, last)
	}
	return p, v, true
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
	n := len(h.keys)
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	keys, vals := h.keys, h.values()[:n]
	for j := 0; j < k; j++ {
		dst = append(dst, Item[T]{P: keys[0], V: vals[0]})
		last := n - 1 - j
		if last > 0 {
			h.siftDown(keys[last], vals[last], last)
		}
	}
	clear(vals[n-k:])
	h.keys = keys[:n-k]
	return dst
}

// Sift-down picks the best child without a branch. Which sibling is
// smallest is a coin flip the predictor cannot learn: written as
// `if p < bestP`, the scan mispredicts about once per level, and that was
// a third of SMQ's cycles on SSSP. The selects below are data
// dependencies instead, on keys only: the priorities sit in an array of
// their own, so a d = 4 sibling group is 32 aligned bytes rather than 64
// unaligned bytes of Items, and a level moves one key and one payload.
//
// At d = 4 the select is a two-level tournament — the winner of the first
// pair against the winner of the second — so the level's critical path is
// two compare-selects deep instead of the linear scan's three, and the
// loop indexes both arrays unchecked. Keys apart and the tournament alone
// measured nothing: with bounds checks on two arrays the loop's values
// spilled to the stack, on the critical path. Unchecked, on a 2-vCPU VM,
// hold pattern, uint32 payload, ns per pop+push pair
// (BenchmarkLocalQueue_DHeap4), the scan on Items -> this loop, medians
// of 5 alternating runs: 2^10 resident 73 -> 57, 2^13 95 -> 77, 2^16
// 120 -> 108. Other arities keep the linear scan, over keys.
//
// Branch-free selection loses where the branch used to win: each level's
// address waits for the previous level's loads, whereas the branchy scan
// ran ahead down the predicted child and overlapped their cache misses.
// On a heap another core wrote last (every level a coherence miss) that
// overlap was worth more than the mispredictions cost: -11% on the
// bench's hold workload for mq (3.22 -> 2.86 M pairs/s) while its heap
// headers were separate allocations, and -8% for coarse's one shared
// heap. mq now keeps the header in the lock's line (see mq.lockQueue),
// which repaid its share. Keys apart from values make a remote level miss
// in two arrays, re-checked on bench's hold at W = 2: tasks_per_s.mq
// moved +1.0 % (10 pairs, inside the spread) and zoo.pairs_per_s.mq
// +16 %, coarse +14 %, but emq -6 % and reld, whose inserts all go to
// another worker's heap, -16 % (3 traced runs a side). A structure whose
// nodes are mostly remote misses, such as cbpq's chunks, should not copy
// this loop.
//
// The borrow of a 64-bit subtract is exact over the whole uint64 range
// and keeps the strict-less tie-break (the first of equal siblings wins:
// a later pair beats an earlier one only if strictly less), so pop
// sequences are those of the branchy scan; the sign of p-bestP is not,
// see TestDHeapMatchesReferenceSiftDown.

// siftUp places (p, v) at slot i, which is vacant, or higher.
func (h *DHeap[T]) siftUp(i int, p uint64, v T) {
	keys, vals := h.keys, h.values()
	if shift := h.shift; shift != 0 {
		for i > 0 {
			parent := (i - 1) >> shift
			if keys[parent] <= p {
				break
			}
			keys[i], vals[i] = keys[parent], vals[parent]
			i = parent
		}
	} else {
		d := int(h.d)
		for i > 0 {
			parent := (i - 1) / d
			if keys[parent] <= p {
				break
			}
			keys[i], vals[i] = keys[parent], vals[parent]
			i = parent
		}
	}
	keys[i], vals[i] = p, v
}

// siftDown places (p, v) at the root, which is vacant, or lower, in the
// heap of the first n slots — PopBatch shrinks the heap k times without
// re-slicing the header per pop, so the live length arrives as an
// argument.
func (h *DHeap[T]) siftDown(p uint64, v T, n int) {
	i := 0
	if h.d == 4 {
		// Unchecked indexing: every slot touched is below n, which is at
		// most len(h.keys), and the payload array has cap(h.keys) slots.
		// Bounds checks on two arrays kept the loop's values from fitting
		// the registers: with them, the same loop measured 8 to 27 % slower
		// from 2^10 to 2^16 resident, no faster than the scan on Items.
		keys, vals := unsafe.Pointer(unsafe.SliceData(h.keys)), unsafe.Pointer(h.vals)
		size := unsafe.Sizeof(v)
		key := func(i int) *uint64 { return (*uint64)(unsafe.Add(keys, i*8)) }
		val := func(i int) *T { return (*T)(unsafe.Add(vals, uintptr(i)*size)) }
		for {
			first := 4*i + 1
			if first+4 > n {
				if first < n {
					break // a partial last group: the scan below
				}
				*key(i), *val(i) = p, v
				return
			}
			g := (*[4]uint64)(unsafe.Pointer(key(first)))
			_, lt1 := bits.Sub64(g[1], g[0], 0) // the borrow: 1 iff g[1] < g[0]
			_, lt2 := bits.Sub64(g[3], g[2], 0)
			m1 := g[0] ^ (g[0]^g[1])&-lt1
			m2 := g[2] ^ (g[2]^g[3])&-lt2
			_, lt := bits.Sub64(m2, m1, 0) // the second pair wins only if strictly less
			bestP := m1 ^ (m1^m2)&-lt
			best := first + int(lt1^(lt1^(2|lt2))&-lt)
			if bestP >= p {
				*key(i), *val(i) = p, v
				return
			}
			*key(i), *val(i) = bestP, *val(best)
			i = best
		}
	}
	keys, vals := h.keys[:n], h.values()[:n]
	d := int(h.d)
	for {
		first := i*d + 1
		if first >= n {
			break
		}
		end := min(first+d, n)
		best, bestP := first, keys[first]
		for c := first + 1; c < end; c++ {
			k := keys[c]
			_, lt := bits.Sub64(k, bestP, 0) // the borrow: 1 iff k < bestP
			bestP ^= (bestP ^ k) & -lt
			best ^= (best ^ c) & -int(lt)
		}
		if bestP >= p {
			break
		}
		keys[i], vals[i] = bestP, vals[best]
		i = best
	}
	keys[i], vals[i] = p, v
}

var _ Queue[int] = (*DHeap[int])(nil)
