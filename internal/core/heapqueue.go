package core

import (
	"sync/atomic"

	"repro/internal/contend"
	"repro/internal/pq"
)

// heapQueue is Listing 4's HeapWithStealingBufferQueue: a sequential d-ary
// heap owned by one worker, plus a stealing buffer visible to all.
//
// The buffer protocol packs (epoch, stolen) into one atomic word:
//
//	state = epoch<<1 | stolenBit
//
// The owner refills the buffer only after observing stolenBit set, bumps
// the epoch, publishes the new immutable batch, and clears the bit. A
// thief (or the owner reclaiming its own buffer) validates that the batch
// it loaded carries the epoch it saw in state and then CASes the stolen
// bit in; the single successful CAS for an epoch owns the whole batch.
type heapQueue[T any] struct {
	// Owner-only words: the heap header and batch size are touched on
	// every local push/pop but never by thieves. The header is embedded
	// by value: allocated on its own, the workers' 40-byte headers land
	// in one 48-byte size class and share cache lines.
	heap      pq.DHeap[T]
	stealSize int
	_         [contend.CacheLineSize - 48]byte // owner words get their own line

	// Thief-shared words: every victim probe loads state (and often
	// buf), and every steal CASes state. Isolating the epoch word on its
	// own line means thieves' CAS traffic never invalidates the owner's
	// heap-header line, and padding the tail keeps the next queue's
	// header out too.
	buf   atomic.Pointer[stealBatch[T]]
	state atomic.Uint64 // epoch<<1 | stolen
	_     [contend.CacheLineSize - 16]byte
}

// stealBatch is an immutable published batch. items is never mutated
// after the batch is stored in heapQueue.buf.
type stealBatch[T any] struct {
	items []pq.Item[T]
	epoch uint64
}

func newHeapQueue[T any](arity, stealSize int) *heapQueue[T] {
	q := &heapQueue[T]{
		heap:      *pq.NewDHeapCap[T](arity, 256),
		stealSize: stealSize,
	}
	q.state.Store(1) // epoch 0, stolen: nothing published yet
	return q
}

// PushLocal adds a task to the heap and replenishes the steal buffer if
// its previous batch was taken.
func (q *heapQueue[T]) PushLocal(p uint64, v T) {
	q.heap.Push(p, v)
	if q.state.Load()&1 == 1 {
		q.fillBuffer()
	}
}

// PushLocalBatch adds a whole run to the heap and checks the steal
// buffer once for the batch — one atomic state load (and at most one
// refill) instead of one per task.
//
// The refill, when due, happens after the FIRST item exactly as in the
// per-item loop, not after the whole batch: a post-batch refill would
// capture the batch's top tasks into the thief buffer, where they are
// invisible to the owner's pops until the heap next runs dry. On
// road-graph SSSP that misordering compounds into repeated re-expansion
// waves — 4x the relaxation work — because the hidden tasks are
// precisely the best frontier vertices.
func (q *heapQueue[T]) PushLocalBatch(items []pq.Item[T]) {
	if len(items) == 0 {
		return
	}
	if q.state.Load()&1 == 1 {
		q.heap.PushItem(items[0])
		q.fillBuffer()
		items = items[1:]
	}
	q.heap.PushBatch(items)
}

// PopLocal takes the heap top; when the heap is empty it reclaims the
// queue's own published buffer (without that, a never-stolen batch would
// strand its tasks). The surplus of a reclaimed batch is pushed back into
// the heap — the owner has cheap private access, unlike a thief.
func (q *heapQueue[T]) PopLocal() (uint64, T, bool) {
	if q.state.Load()&1 == 1 {
		q.fillBuffer()
	}
	if p, v, ok := q.heap.Pop(); ok {
		return p, v, true
	}
	// Heap empty: take back our own buffer if it is still there.
	batch := q.Steal(nil)
	if len(batch) == 0 {
		var zero T
		return pq.InfPriority, zero, false
	}
	for _, it := range batch[1:] {
		q.heap.PushItem(it)
	}
	return batch[0].P, batch[0].V, true
}

// PopLocalBatch drains up to k tasks from the heap into dst under a
// single buffer-replenish check; when the heap is empty it reclaims
// the queue's own published buffer in one epoch transition, keeping at
// most k tasks and pushing the surplus back into the heap (the owner
// has cheap private access, unlike a thief).
func (q *heapQueue[T]) PopLocalBatch(k int, dst []pq.Item[T]) []pq.Item[T] {
	if q.state.Load()&1 == 1 {
		q.fillBuffer()
	}
	n0 := len(dst)
	dst = q.heap.PopBatch(k, dst)
	if len(dst) > n0 {
		return dst
	}
	// Heap empty: take back our own buffer if it is still there.
	dst = q.Steal(dst)
	if extra := len(dst) - (n0 + k); extra > 0 {
		for _, it := range dst[n0+k:] {
			q.heap.PushItem(it)
		}
		clear(dst[n0+k:])
		dst = dst[:n0+k]
	}
	return dst
}

// TopLocal is the owner's view: the better of the heap top and the
// not-yet-stolen buffer top.
func (q *heapQueue[T]) TopLocal() uint64 {
	top := q.heap.Top()
	if bufTop := q.Top(); bufTop < top {
		top = bufTop
	}
	return top
}

// Top returns the thief-visible priority: the published buffer's best
// task, or infinity when the batch is stolen/absent. This is Listing 4's
// top(): load state, check the stolen bit, read, validate epoch.
func (q *heapQueue[T]) Top() uint64 {
	s := q.state.Load()
	if s&1 == 1 {
		return pq.InfPriority
	}
	b := q.buf.Load()
	if b == nil || b.epoch != s>>1 {
		// The owner republished between our two loads; one retry keeps
		// the common case cheap and a miss just reports infinity (the
		// caller will simply not steal — a benign outcome).
		s = q.state.Load()
		b = q.buf.Load()
		if s&1 == 1 || b == nil || b.epoch != s>>1 {
			return pq.InfPriority
		}
	}
	return b.items[0].P
}

// Steal is Listing 4's steal(): claim the published batch for this epoch.
// On success the items are appended to dst; the published slice itself is
// immutable and owned by nobody afterwards.
func (q *heapQueue[T]) Steal(dst []pq.Item[T]) []pq.Item[T] {
	for {
		s := q.state.Load()
		if s&1 == 1 {
			return dst
		}
		b := q.buf.Load()
		if b == nil || b.epoch != s>>1 {
			continue // owner mid-republish; retry from state
		}
		if q.state.CompareAndSwap(s, s|1) {
			return append(dst, b.items...)
		}
		// Lost the CAS to another thief: batch gone.
		return dst
	}
}

// fillBuffer publishes the heap's current top batch. Owner only, and only
// when the stolen bit is set (so no thief holds the previous epoch).
func (q *heapQueue[T]) fillBuffer() {
	if q.heap.Len() == 0 {
		return
	}
	items := q.heap.PopBatch(q.stealSize, make([]pq.Item[T], 0, q.stealSize))
	epoch := q.state.Load()>>1 + 1
	q.buf.Store(&stealBatch[T]{items: items, epoch: epoch})
	q.state.Store(epoch << 1) // clears the stolen bit
}

var _ stealQueue[int] = (*heapQueue[int])(nil)
