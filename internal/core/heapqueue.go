package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/contend"
	"repro/internal/pq"
)

// heapQueue is Listing 4's HeapWithStealingBufferQueue: a sequential
// local queue owned by one worker, plus a stealing buffer visible to all.
// The local queue is a pq.BucketQueue, exact like the paper's d-ary heap,
// which it keeps behind its window of buckets (see the package doc).
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
// next batch off the local queue into the array, stores the batch's top
// priority in top, and publishes both with the store of the next epoch's
// word. So every access to the array is ordered by the state word's
// atomics, and nothing is allocated per batch.
//
// The owner counts its own published batch among its tasks: a pop takes
// the batch back whenever its top beats the local queue's, runs it from
// run, and publishes the next best batch in the same operation. Thieves
// therefore always see the batch the owner would run next, and the owner
// never works around its own best tasks while they wait for a thief.
//
// Every owner operation is eager: with buckets under it a pop and a push
// cost O(1) each, so nothing is gained by folding a pop into the push
// that follows it.
type heapQueue[T any] struct {
	// Owner-only words: touched on every local push and pop, never by
	// thieves. The local queue's header is embedded by value: allocated
	// on its own, the workers' headers would land in one size class and
	// share cache lines.
	local     pq.BucketQueue[T]
	stealSize int
	// run holds what is left of the batches the owner took back, in
	// priority order from runIdx on.
	run    []pq.Item[T]
	runIdx int
	_      [3*contend.CacheLineSize - 152]byte // owner words end on a line boundary

	// Thief-shared words: every victim probe loads state and top, and
	// every claim CASes state. Keeping them off the owner's lines means
	// thieves' CAS traffic never invalidates the local queue's header,
	// and padding the tail keeps the next queue's header out too.
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
func newHeapQueue[T any](stealSize int) *heapQueue[T] {
	q := &heapQueue[T]{
		local:     *pq.NewBucketQueue[T](256),
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

// PushLocal adds a task to the local queue and replenishes the steal
// buffer if its previous batch was taken.
func (q *heapQueue[T]) PushLocal(p uint64, v T) {
	q.local.Push(p, v)
	if s := q.state.Load(); s&bufReleased != 0 {
		q.refill(s, q.stealSize)
	}
}

// PushLocalBatch adds the pairs to the local queue as they arrive
// (PushPairs) and checks the steal buffer once for the batch — one atomic
// state load (and at most one refill) instead of one per task. A refill
// takes the best of local queue and batch together; the owner's pops see
// the published batch, so nothing it publishes is hidden from them.
func (q *heapQueue[T]) PushLocalBatch(ps []uint64, vs []T) {
	q.local.PushPairs(ps, vs)
	if s := q.state.Load(); s&bufReleased != 0 {
		q.refill(s, q.stealSize)
	}
}

// PopLocal takes the owner's best task: the better of the local queue's
// top and what is left of the batches it took back, after taking back
// the published batch if that one's top beats both — the scalar case of
// PopLocalBatch, which keeps the surplus of a batch in run instead of
// sending it back through the local queue.
//
// It is PopLocalBatch(1, …) written out (sched's TestPopIsPopNOfOne pins
// that the two pop the same sequence), kept — with smqWorker.Pop above
// it — because the SMQ's scalar pop over the bucket window is a few tens
// of nanoseconds and the batch path's merge loop shows at that scale.
// bench's `hold -sched smq` (2 vCPUs, W = 2, 15 s runs, 8 rotating
// rounds) read tasks_per_s.smq, as median [q1, q3]:
//
//   - as written here: 73.9 M/s [64.4, 80.5];
//   - with PopLocal routed through PopLocalBatch(1, …): 59.1 [56.9,
//     64.5], behind in 7 of 8 rounds;
//   - with smqWorker.Pop routed through PopN of one: 30.8 [29.0, 33.5],
//     behind in 8 of 8.
//
// Every other scheduler's Pop is PopN of one; the callers select here by
// which method they invoke, and the benchmark has a workload on each
// side (`hold` scalar, the other four batched).
func (q *heapQueue[T]) PopLocal() (p uint64, v T, ok bool) {
	s := q.state.Load()
	best, fromRun := q.local.Top(), false
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
		p, v, ok = q.local.Pop()
	}
	if mine || s&bufReleased != 0 {
		q.refill(s, q.stealSize)
	}
	return p, v, ok
}

// PopLocalBatch appends the owner's best k tasks to dst in priority
// order: a merge of the local queue with the batches the owner took
// back, including the published one from the moment its top is the best
// of the three. It then publishes the local queue's next best max(stealSize, k)
// tasks if the buffer is free — taken back just now, or released by a
// thief — so that a thief is offered as much as the owner just took.
func (q *heapQueue[T]) PopLocalBatch(k int, dst []pq.Item[T]) []pq.Item[T] {
	s := q.state.Load()
	published := s&(bufClaimed|bufReleased) == 0
	mine := false // the owner holds the claim
merge:
	for want := len(dst) + k; len(dst) < want; {
		if q.runIdx == len(q.run) && !published {
			// Nothing left to merge with: the rest is the local queue's.
			dst = q.local.PopBatch(want-len(dst), dst)
			break
		}
		best, fromRun := q.local.Top(), false
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
			dst = q.local.PopBatch(1, dst)
		default:
			break merge // local queue and run are empty, the buffer claimed
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

// TopLocal is the owner's view: the best of the local queue's top, the
// batches it took back and the not-yet-claimed published batch.
func (q *heapQueue[T]) TopLocal() uint64 {
	top := min(q.local.Top(), q.Top())
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

// refill publishes the local queue's best n tasks as the next epoch.
// Owner only, and only while the buffer is the owner's to write: s, the
// state word, is released, or carries the owner's own claim, which an
// empty local queue turns into a release.
func (q *heapQueue[T]) refill(s uint64, n int) {
	if q.local.Len() == 0 {
		if s&bufReleased == 0 {
			q.state.Store(s | bufReleased)
		}
		return
	}
	q.buf = q.local.PopBatch(n, q.buf[:0])
	q.top.Store(q.buf[0].P)
	q.state.Store((s>>2 + 1) << 2)
}

var _ stealQueue[int] = (*heapQueue[int])(nil)
