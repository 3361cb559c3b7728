package core

import "repro/internal/pq"

// BenchQueue exposes the heap queue's steal-buffer protocol to the
// repository-root design-ablation benchmarks (BenchmarkAblation_
// StealBuffer). It is not part of the scheduler API: Refill must be
// called from a single owner goroutine, exactly like the real owner.
type BenchQueue struct {
	q *heapQueue[int]
}

// NewBenchQueue returns an empty queue with the given steal batch size.
func NewBenchQueue(stealSize int) *BenchQueue {
	return &BenchQueue{q: newHeapQueue[int](pq.DefaultArity, stealSize)}
}

// Refill pushes items and republishes the steal buffer if it was taken.
func (b *BenchQueue) Refill(items []pq.Item[int]) {
	for _, it := range items {
		b.q.PushLocal(it.P, it.V)
	}
}

// Steal attempts to claim the published batch.
func (b *BenchQueue) Steal(dst []pq.Item[int]) []pq.Item[int] {
	return b.q.Steal(dst)
}
