package core

import (
	"repro/internal/cskiplist"
	"repro/internal/pq"
)

// skipQueue adapts a concurrent skip list to the stealQueue contract for
// the SMQ-via-skip-lists variant (§4, Appendix D.3/D.4). Unlike the heap
// variant there is no separate stealing buffer: the list itself is safe
// for concurrent access, the thief-visible top is the true top, and a
// steal is a batched DeleteMin on the victim's list. The trade-off
// (measured in the Appendix D benchmarks) is synchronization cost on
// every local operation.
type skipQueue[T any] struct {
	list      *cskiplist.SkipList[T]
	stealSize int
}

func newSkipQueue[T any](seed uint64, stealSize int) *skipQueue[T] {
	return &skipQueue[T]{
		list:      cskiplist.New[T](seed),
		stealSize: stealSize,
	}
}

func (q *skipQueue[T]) PushLocal(p uint64, v T) { q.list.Insert(p, v) }

// PushLocalBatch has no cheaper primitive than repeated inserts: the
// list synchronizes per node regardless, so the batch win here is only
// the caller's amortized bookkeeping.
func (q *skipQueue[T]) PushLocalBatch(ps []uint64, vs []T) {
	for i, p := range ps {
		q.list.Insert(p, vs[i])
	}
}

func (q *skipQueue[T]) PopLocal() (uint64, T, bool) { return q.list.DeleteMin() }

func (q *skipQueue[T]) PopLocalBatch(k int, dst []pq.Item[T]) []pq.Item[T] {
	return q.list.DeleteMinBatch(k, dst)
}

func (q *skipQueue[T]) TopLocal() uint64 { return q.list.Top() }

func (q *skipQueue[T]) Top() uint64 { return q.list.Top() }

func (q *skipQueue[T]) Steal(dst []pq.Item[T]) []pq.Item[T] {
	return q.list.DeleteMinBatch(q.stealSize, dst)
}

var _ stealQueue[int] = (*skipQueue[int])(nil)
