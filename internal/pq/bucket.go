package pq

import (
	"math"
	"math/bits"
)

// BucketQueue is an exact min-queue of width-1 buckets over a circular
// window of bucketWindow consecutive priorities, with a DHeap of fan-out
// DefaultArity (4) behind the window for every task outside it. A task
// inside the window costs O(1) to push and to pop: its bucket is a LIFO
// list, and a two-level bitmap finds the next non-empty bucket. The
// SMQ's local queue is one (see core.heapQueue): once a worker's queue
// holds thousands of tasks, the heap's sift-down is most of a pop,
// whereas the frontier of a hold or SSSP workload spans a few hundred
// priorities, which the window covers.
//
// Every pop returns a minimum-priority task. Equal priorities in one
// bucket come out newest first; the heap breaks its own ties.
//
// The window is [base, base+bucketWindow), and while it holds tasks base
// is the smallest bucketed priority. It moves by this policy:
//
//   - a push into an empty window places the window at the pushed task;
//   - a push below the window slides it down to the task if every
//     bucketed task still fits, and otherwise goes to the heap, as does
//     a push above the window;
//   - a pop advances base to the next non-empty bucket;
//   - a pop that finds the heap's minimum below base slides the window
//     down to it if every bucketed task still fits; if not, and the
//     window holds no more tasks than the heap, it evicts the bucketed
//     tasks into the heap and re-places the window at the heap's
//     minimum; if not that either, the heap serves the pop. An eviction
//     therefore moves at most as many tasks as the heap holds. After a
//     slide or an eviction the heap's tasks that fall inside the window
//     move into their buckets.
//
// The zero value is not usable; construct with NewBucketQueue.
type BucketQueue[T any] struct {
	heap DHeap[T] // the tasks outside the window
	// nodes is the pool the buckets' lists are threaded through; node 0
	// is the nil node, and free heads the list of vacant nodes.
	nodes   []bucketNode[T]
	b       *buckets
	summary uint64 // bit w set iff b.words[w] != 0
	n       int    // bucketed tasks
	base    uint64 // the window's first priority: the bucketed minimum while n > 0
	hi      uint64 // the bucketed maximum while n > 0
	free    int32
}

const (
	bucketWindow = 4096 // priorities in the window, one bucket each
	bucketMask   = bucketWindow - 1
)

// buckets is the window proper, allocated apart from the queue's header.
type buckets struct {
	words [bucketWindow / 64]uint64 // bit s%64 of words[s/64] set iff bucket s holds a task
	heads [bucketWindow]int32       // first node of bucket s's list, 0 when empty
}

type bucketNode[T any] struct {
	v    T
	next int32
}

// NewBucketQueue returns an empty queue whose heap (fan-out
// DefaultArity) and bucket pool have room for capacity tasks each.
func NewBucketQueue[T any](capacity int) *BucketQueue[T] {
	return &BucketQueue[T]{
		heap:  *NewDHeapCap[T](DefaultArity, capacity),
		nodes: make([]bucketNode[T], 1, capacity+1), // and the nil node
		b:     new(buckets),
	}
}

// Len reports the number of queued tasks.
func (q *BucketQueue[T]) Len() int { return q.n + q.heap.Len() }

// Top returns the minimum priority, or InfPriority when empty.
func (q *BucketQueue[T]) Top() uint64 {
	t := q.heap.Top()
	if q.n > 0 && q.base < t {
		return q.base
	}
	return t
}

// Push inserts a task.
func (q *BucketQueue[T]) Push(p uint64, v T) {
	switch {
	case q.n == 0:
		q.base, q.hi = p, p // place the window
	case p-q.base < bucketWindow: // inside; p < base wraps to a large difference
	case p < q.base && q.hi-p < bucketWindow:
		q.base = p // slide down: every bucketed task still fits
	default:
		q.heap.Push(p, v)
		return
	}
	q.pushBucket(p, v)
}

// PushPairs inserts the parallel-slice batch ps[i]/vs[i] in index order.
// Both slices must have equal length (the caller validates).
func (q *BucketQueue[T]) PushPairs(ps []uint64, vs []T) {
	for i, p := range ps {
		q.Push(p, vs[i])
	}
}

// Pop removes and returns a minimum-priority task.
func (q *BucketQueue[T]) Pop() (p uint64, v T, ok bool) {
	if q.n == 0 || q.heap.Top() < q.base {
		if q.heap.Len() == 0 {
			return InfPriority, v, false
		}
		if !q.rebase() {
			return q.heap.Pop()
		}
	}
	p, v = q.popBucket()
	return p, v, true
}

// PopBatch removes up to k minimum-priority tasks in priority order,
// appending them to dst, and returns the extended slice.
func (q *BucketQueue[T]) PopBatch(k int, dst []Item[T]) []Item[T] {
	for ; k > 0; k-- {
		p, v, ok := q.Pop()
		if !ok {
			break
		}
		dst = append(dst, Item[T]{P: p, V: v})
	}
	return dst
}

// rebase is a pop's policy when the heap's minimum is below the window
// or the window is empty (see BucketQueue). It reports whether the
// window moved, in which case its first bucket holds that minimum; when
// it reports false, the heap serves the pop.
func (q *BucketQueue[T]) rebase() bool {
	m := q.heap.Top()
	switch {
	case q.n == 0:
		q.hi = m
	case q.hi-m < bucketWindow: // slide down
	case q.n <= q.heap.Len():
		q.evict()
		q.hi = m
	default:
		return false
	}
	q.base = m
	// Every heap task is at least m = base: move those inside the window.
	for q.heap.Len() > 0 && q.heap.Top()-q.base < bucketWindow {
		p, v, _ := q.heap.Pop()
		q.pushBucket(p, v)
	}
	return true
}

// evict moves every bucketed task into the heap and empties the window.
func (q *BucketQueue[T]) evict() {
	b := q.b
	for sum := q.summary; sum != 0; sum &= sum - 1 {
		w := bits.TrailingZeros64(sum)
		for word := b.words[w]; word != 0; word &= word - 1 {
			s := uint64(w*64 + bits.TrailingZeros64(word))
			p := q.base + (s-q.base)&bucketMask
			for i := b.heads[s]; i != 0; {
				nd := &q.nodes[i]
				q.heap.Push(p, nd.v)
				next := nd.next
				*nd = bucketNode[T]{next: q.free}
				q.free, i = i, next
			}
			b.heads[s] = 0
		}
		b.words[w] = 0
	}
	q.summary, q.n = 0, 0
}

// pushBucket adds a task whose priority is inside the window to its
// bucket, and raises hi to it.
func (q *BucketQueue[T]) pushBucket(p uint64, v T) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) > math.MaxInt32 {
			panic("pq: BucketQueue holds more than 2^31-1 bucketed tasks")
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, bucketNode[T]{})
	}
	s := p & bucketMask
	b := q.b
	if b.heads[s] == 0 {
		b.words[s/64] |= 1 << (s % 64)
		q.summary |= 1 << (s / 64)
	}
	q.nodes[i] = bucketNode[T]{v: v, next: b.heads[s]}
	b.heads[s] = i
	q.n++
	q.hi = max(q.hi, p)
}

// popBucket removes the newest task of the window's first bucket, which
// must hold one, and advances base past it if the bucket is now empty.
func (q *BucketQueue[T]) popBucket() (uint64, T) {
	p := q.base
	s := p & bucketMask
	b := q.b
	i := b.heads[s]
	nd := &q.nodes[i]
	v := nd.v
	b.heads[s] = nd.next
	*nd = bucketNode[T]{next: q.free} // the vacated node retains no payload
	q.free = i
	q.n--
	if b.heads[s] == 0 {
		w := s / 64
		if b.words[w] &^= 1 << (s % 64); b.words[w] == 0 {
			q.summary &^= 1 << w
		}
		if q.n > 0 {
			q.base = p + (q.nextSlot(s)-s)&bucketMask
		}
	}
	return p, v
}

// nextSlot returns the first non-empty bucket at or after slot s in the
// window's circular order, in which slot s holds priority base. Some
// bucket must hold a task.
func (q *BucketQueue[T]) nextSlot(s uint64) uint64 {
	b := q.b
	w := s / 64
	if m := b.words[w] >> (s % 64); m != 0 {
		return s + uint64(bits.TrailingZeros64(m))
	}
	// A later word, or else the first word from slot 0 on: the window
	// wraps there, and what lies below s in word w comes last.
	m := q.summary &^ (2<<w - 1) // 2<<63 is 0: no word follows word 63
	if m == 0 {
		m = q.summary
	}
	w = uint64(bits.TrailingZeros64(m))
	return w*64 + uint64(bits.TrailingZeros64(b.words[w]))
}

var _ Queue[int] = (*BucketQueue[int])(nil)
