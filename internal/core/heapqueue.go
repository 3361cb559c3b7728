package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/contend"
	"repro/internal/pq"
)

// heapQueue is Listing 4's HeapWithStealingBufferQueue: a sequential d-ary
// heap owned by one worker, plus a stealing buffer visible to all.
//
// The buffer is one item array, allocated with the queue and written in
// place, behind one atomic word:
//
//	state = epoch<<2 | bufReleased | bufClaimed
//
// With both bits clear the buffer holds the published batch of that
// epoch. A claimant — a thief, or the owner taking its own batch back —
// wins it with the single successful CAS that sets bufClaimed, copies the
// items out, and then stores bufReleased. The items are read only inside
// that claim→release window, and the owner writes them only while the
// buffer is released (or while it holds the claim itself): it pops the
// next batch off the heap into the array, stores the batch's top priority
// in top, and publishes both with the store of the next epoch's word. So
// every access to the array is ordered by the state word's atomics, and
// nothing is allocated per batch.
//
// The owner counts its own published batch among its tasks: a pop takes
// the batch back whenever its top beats the heap's, runs it from run, and
// publishes the next best batch in the same operation. Thieves therefore
// always see the batch the owner would run next, and the owner never
// works around its own best tasks while they wait for a thief.
//
// The owner's scalar pop from the heap is deferred. PopLocal returns the
// heap's root without removing it and records the removal as owed
// (popped); the owner's next local operation pays it. A PushLocal pays it
// with ReplaceTop, which puts the new task in the root's place with one
// sift-down, where Pop then Push costs a sift-down and a sift-up: the
// hold pattern of a scheduler — pop a task, push what it spawns — costs
// one sift per pair. Every other owner operation — PopLocal,
// PopLocalBatch, TopLocal, PushLocalBatch, and refill with its empty
// check — first settles the owed removal with the eager Pop. Thieves
// read only state, top and buf, and a deferred task never reaches buf
// (refill settles before it fills the array), so the steal protocol is
// the one above. The batch paths stay eager.
type heapQueue[T any] struct {
	// Owner-only words: touched on every local push and pop, never by
	// thieves. The heap header is embedded by value: allocated on its own,
	// the workers' 40-byte headers land in one 48-byte size class and
	// share cache lines.
	heap      pq.DHeap[T]
	stealSize int
	// run holds what is left of the batches the owner took back, in
	// priority order from runIdx on.
	run    []pq.Item[T]
	runIdx int
	// popped: the heap's root is the task PopLocal last returned, its
	// removal owed (see above).
	popped bool
	_      [2*contend.CacheLineSize - 81]byte // owner words end on a line boundary

	// Thief-shared words: every victim probe loads state and top, and
	// every claim CASes state. Keeping them off the owner's lines means
	// thieves' CAS traffic never invalidates the heap header, and padding
	// the tail keeps the next queue's header out too.
	state atomic.Uint64
	top   atomic.Uint64 // best priority of the published batch
	buf   []pq.Item[T]  // the published batch; the header moves with the items
	_     [contend.CacheLineSize - 40]byte
}

const (
	bufClaimed  = 1 // a claimant is copying the batch out
	bufReleased = 2 // it has finished: the owner may refill
)

// newHeapQueue returns an empty queue that publishes batches of
// stealSize tasks, or, with stealSize 0 (a scheduler with one worker has
// no thief), nothing at all.
func newHeapQueue[T any](arity, stealSize int) *heapQueue[T] {
	q := &heapQueue[T]{
		heap:      *pq.NewDHeapCap[T](arity, 256),
		stealSize: stealSize,
	}
	if stealSize == 0 {
		// Claimed and never released: no thief can claim it, and the owner
		// neither refills nor reclaims it.
		q.state.Store(bufClaimed)
		return q
	}
	// Whole cache lines, so that two queues' arrays never share one: the
	// owner rewrites its array on every refill.
	lineItems := max(1, contend.CacheLineSize/int(unsafe.Sizeof(pq.Item[T]{})))
	q.buf = make([]pq.Item[T], 0, (stealSize+lineItems-1)/lineItems*lineItems)
	q.state.Store(bufClaimed | bufReleased) // epoch 0: nothing published yet
	return q
}

// PushLocal adds a task to the heap and replenishes the steal buffer if
// its previous batch was taken. After a PopLocal whose removal is still
// owed it replaces the heap's root instead: one sift for the pop and the
// push together.
func (q *heapQueue[T]) PushLocal(p uint64, v T) {
	if q.popped {
		q.popped = false
		q.heap.ReplaceTop(p, v)
	} else {
		q.heap.Push(p, v)
	}
	if s := q.state.Load(); s&bufReleased != 0 {
		q.refill(s, q.stealSize)
	}
}

// PushLocalBatch adds a whole run to the heap and checks the steal
// buffer once for the batch — one atomic state load (and at most one
// refill) instead of one per task. A refill takes the best of heap and
// batch together; the owner's pops see the published batch, so nothing
// it publishes is hidden from them.
func (q *heapQueue[T]) PushLocalBatch(items []pq.Item[T]) {
	q.settle()
	q.heap.PushBatch(items)
	if s := q.state.Load(); s&bufReleased != 0 {
		q.refill(s, q.stealSize)
	}
}

// PopLocal takes the owner's best task: the better of the heap top and
// what is left of the batches it took back, after taking back the
// published batch if that one's top beats both — the scalar case of
// PopLocalBatch, which keeps the surplus of a batch in run instead of
// sending it back through the heap. It first settles the removal a
// previous PopLocal left owed. A task it takes from the heap stays in the
// heap's root, its removal owed in turn: a PushLocal that follows folds
// it into a ReplaceTop, and any other owner operation settles it (see
// heapQueue). A refill in this same call settles it at once, so only a
// pop that republishes nothing defers.
//
// It is PopLocalBatch(1, …) written out (sched's TestPopIsPopNOfOne pins
// that the two pop the same sequence), kept — with smqWorker.Pop above
// it — because the SMQ's scalar pop is a few tens of nanoseconds and the
// batch path's merge loop shows at that scale: with Pop routed through
// PopN and PopLocalBatch, bench's `hold` (2 cores, W = 2, 15 s, 10
// rotating rounds) read tasks_per_s.smq 14.82 M/s [q1 14.36, q3 15.43]
// → 13.97 [12.96, 14.61], 2 of 10 rounds won, below the parent's
// quartiles; the sizing run before it 15.45 → 14.45 and, at one
// worker, 7.60 → 7.23. Every other scheduler's Pop is PopN of one; the
// callers select here by which method they invoke, and the benchmark
// has a workload on each side (`hold` scalar, the other four batched).
// The deferral (with the keys-apart heap under it) then took `hold`
// from 11.56 M/s [q1 11.42, q3 11.67] to 14.98, 10 of 10 pairs, and from
// 11.80 to 16.46 at seed 2, 4 of 4, on a slower host than the figures
// above; traced, a scalar pop costs 80 ns instead of 173 and the push
// after it, which now pays the one sift, 126 instead of 77.
func (q *heapQueue[T]) PopLocal() (p uint64, v T, ok bool) {
	q.settle()
	s := q.state.Load()
	best, fromRun := q.heap.Top(), false
	if q.runIdx < len(q.run) && q.run[q.runIdx].P <= best {
		best, fromRun = q.run[q.runIdx].P, true
	}
	mine := false // the owner holds the claim
	if s&(bufClaimed|bufReleased) == 0 && q.top.Load() < best {
		if mine = q.state.CompareAndSwap(s, s|bufClaimed); mine {
			s |= bufClaimed
			q.takeBack()
			fromRun = true
		}
		// Otherwise a thief has it: the batch is its to run.
	}
	if fromRun {
		it := q.popRun()
		p, v, ok = it.P, it.V, true
	} else {
		p, v, ok = q.heap.Peek()
		q.popped = ok
	}
	if mine || s&bufReleased != 0 {
		q.refill(s, q.stealSize)
	}
	return p, v, ok
}

// settle removes the task PopLocal returned last from the heap, if its
// removal is still owed.
func (q *heapQueue[T]) settle() {
	if q.popped {
		q.popped = false
		q.heap.Pop()
	}
}

// PopLocalBatch appends the owner's best k tasks to dst in priority
// order: a merge of the heap with the batches the owner took back,
// including the published one from the moment its top is the best of the
// three. It then publishes the heap's next best max(stealSize, k) tasks
// if the buffer is free — taken back just now, or released by a thief —
// so that a thief is offered as much as the owner just took.
func (q *heapQueue[T]) PopLocalBatch(k int, dst []pq.Item[T]) []pq.Item[T] {
	q.settle()
	s := q.state.Load()
	published := s&(bufClaimed|bufReleased) == 0
	mine := false // the owner holds the claim
merge:
	for want := len(dst) + k; len(dst) < want; {
		if q.runIdx == len(q.run) && !published {
			// Nothing left to merge with: the rest is the heap's.
			dst = q.heap.PopBatch(want-len(dst), dst)
			break
		}
		best, fromRun := q.heap.Top(), false
		if q.runIdx < len(q.run) && q.run[q.runIdx].P <= best {
			best, fromRun = q.run[q.runIdx].P, true
		}
		switch {
		case published && q.top.Load() < best:
			published = false
			if mine = q.state.CompareAndSwap(s, s|bufClaimed); mine {
				s |= bufClaimed
				q.takeBack()
			}
			// Otherwise a thief has it: the batch is its to run.
		case fromRun:
			dst = append(dst, q.popRun())
		case best != pq.InfPriority:
			dst = q.heap.PopBatch(1, dst)
		default:
			break merge // heap and run are empty, the buffer claimed
		}
	}
	if mine || s&bufReleased != 0 {
		q.refill(s, max(q.stealSize, k))
	}
	return dst
}

// popRun consumes the head of run, which must not be empty.
func (q *heapQueue[T]) popRun() pq.Item[T] {
	it := q.run[q.runIdx]
	q.run[q.runIdx] = pq.Item[T]{}
	q.runIdx++
	return it
}

// takeBack merges the claimed batch into run. Owner only, holding the
// claim. The run need not be empty: after a thief takes a batch, the
// refill may hold tasks pushed since, better than the rest of the run.
func (q *heapQueue[T]) takeBack() {
	r := copy(q.run, q.run[q.runIdx:])
	if r > 0 {
		clear(q.run[r:]) // the moved tasks' old slots; consumed ones are zero already
	}
	q.run = append(q.run[:r], q.buf...)
	q.runIdx = 0
	if r > 0 {
		// Both are in priority order: merge from the back, into the room
		// the append made.
		for i, j, k := r-1, len(q.buf)-1, len(q.run)-1; j >= 0; k-- {
			if i >= 0 && q.run[i].P > q.buf[j].P {
				q.run[k] = q.run[i]
				i--
			} else {
				q.run[k] = q.buf[j]
				j--
			}
		}
	}
	clear(q.buf)
}

// TopLocal is the owner's view: the best of the heap top, the batches it
// took back and the not-yet-claimed published batch.
func (q *heapQueue[T]) TopLocal() uint64 {
	q.settle()
	top := min(q.heap.Top(), q.Top())
	if q.runIdx < len(q.run) {
		top = min(top, q.run[q.runIdx].P)
	}
	return top
}

// Top returns the thief-visible priority: the published batch's best
// task, or infinity when the batch is claimed or absent. This is Listing
// 4's top(): load state, read, validate the epoch. The owner stores top
// only while an earlier epoch is released, so an unchanged published word
// on both sides of the read vouches for it; a miss reports infinity (the
// caller will simply not steal — a benign outcome).
func (q *heapQueue[T]) Top() uint64 {
	s := q.state.Load()
	if s&(bufClaimed|bufReleased) != 0 {
		return pq.InfPriority
	}
	top := q.top.Load()
	if q.state.Load() != s {
		return pq.InfPriority
	}
	return top
}

// Steal is Listing 4's steal(): claim the published batch of this epoch
// and append its items to dst.
func (q *heapQueue[T]) Steal(dst []pq.Item[T]) []pq.Item[T] {
	s := q.state.Load()
	if s&(bufClaimed|bufReleased) != 0 || !q.state.CompareAndSwap(s, s|bufClaimed) {
		return dst // nothing published, or another claimant won it
	}
	dst = append(dst, q.buf...)
	clear(q.buf) // the buffer may stay empty for long: retain no payload
	q.state.Store(s | bufClaimed | bufReleased)
	return dst
}

// refill publishes the heap's best n tasks as the next epoch. Owner
// only, and only while the buffer is the owner's to write: s, the state
// word, is released, or carries the owner's own claim, which an empty
// heap turns into a release.
func (q *heapQueue[T]) refill(s uint64, n int) {
	q.settle()
	if q.heap.Len() == 0 {
		if s&bufReleased == 0 {
			q.state.Store(s | bufReleased)
		}
		return
	}
	q.buf = q.heap.PopBatch(n, q.buf[:0])
	q.top.Store(q.buf[0].P)
	q.state.Store((s>>2 + 1) << 2)
}

var _ stealQueue[int] = (*heapQueue[int])(nil)
