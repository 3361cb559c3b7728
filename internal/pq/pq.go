// Package pq provides the sequential priority-queue building blocks used
// by every scheduler in this repository.
//
// Throughout the module, priorities are uint64 values where a LOWER value
// means a HIGHER priority (distance-like semantics, matching the SSSP/BFS/
// A* workloads of the paper). The paper's SMQ uses sequential d-ary heaps
// (d = 4) as thread-local queues (§4); the SMQ here uses a BucketQueue,
// width-1 buckets over a window of 4 096 priorities with such a heap
// behind it for the tasks outside, because its guarantees need the local
// queue only to be exact and a bucket costs O(1) where the heap's
// sift-down is most of a pop on large queues. The classic Multi-Queue
// wraps one sequential heap per lock-protected queue (§2.1, Listing 1).
package pq

import "math"

// InfPriority is the priority reported for empty queues: no real task may
// use it. It compares greater than (i.e. worse than) every valid priority.
const InfPriority = math.MaxUint64

// Item is a prioritized task: a priority paired with an opaque value.
type Item[T any] struct {
	P uint64 // priority; lower is better
	V T      // payload
}

// Queue is the minimal sequential priority-queue interface shared by the
// heap implementations in this package. Implementations are NOT safe for
// concurrent use; schedulers add their own synchronization.
type Queue[T any] interface {
	// Push inserts a task.
	Push(p uint64, v T)
	// Pop removes and returns the minimum-priority task.
	// ok is false when the queue is empty.
	Pop() (p uint64, v T, ok bool)
	// Top returns the minimum priority without removing it, or
	// InfPriority when empty.
	Top() uint64
	// Len reports the number of queued tasks.
	Len() int
}
