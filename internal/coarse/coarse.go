// Package coarse implements the strawman every relaxed scheduler is
// measured against: a single global heap behind one mutex. It is the
// "perfect priority order" endpoint of the paper's relaxation-vs-
// scalability trade-off (§1, citing Lenharth et al., "Concurrent
// priority queues are not good priority schedulers"): zero wasted work
// from inversions, but every operation serializes on one lock, so
// throughput collapses as workers are added.
//
// It is exact: Pop always returns the global minimum, and ok=false means
// the queue is truly empty at that instant.
package coarse

import (
	"fmt"

	"repro/internal/contend"
	"repro/internal/pq"
	"repro/internal/sched"
)

// Config parameterizes the coarse-locked queue. The global heap has
// the sequential layer's default fan-out, pq.DefaultArity.
type Config struct {
	// Workers is the number of worker slots. Required.
	Workers int
}

// Sched is the coarse-locked global priority queue. The lock word sits
// on its own cache line: with every worker hammering it, sharing a line
// with the heap pointer would add a second invalidation per operation.
// The heap stays behind that pointer, unlike mq's and core's embedded
// headers: a waiter spins on the lock line while the holder rewrites the
// header, and with the header one or two lines away hold ran 2.44 and
// 2.56 M pairs/s against 2.62 with it allocated elsewhere.
type Sched[T any] struct {
	cfg      Config
	mu       contend.Lock
	_        [contend.CacheLineSize - 4]byte
	heap     *pq.DHeap[T]
	workers  []worker[T]
	counters []sched.Counters
}

type worker[T any] struct {
	s   *Sched[T]
	c   *sched.Counters
	one [1]pq.Item[T] // Pop's destination
	// Workers sit in one contiguous slice; a trailing cache line keeps
	// one worker's destination off its neighbour's line.
	_ [contend.CacheLineSize]byte
}

// Validate reports whether the configuration can build a scheduler:
// Workers must be positive. New panics with exactly this error on an
// invalid configuration, so callers that must not panic validate first.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("coarse: Config.Workers = %d, must be positive", c.Workers)
	}
	return nil
}

// New builds a coarse-locked scheduler.
func New[T any](cfg Config) *Sched[T] {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	s := &Sched[T]{
		cfg:      cfg,
		heap:     pq.NewDHeapCap[T](pq.DefaultArity, 1024),
		workers:  make([]worker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	for i := range s.workers {
		s.workers[i] = worker[T]{s: s, c: &s.counters[i]}
	}
	return s
}

// Workers reports the number of worker slots.
func (s *Sched[T]) Workers() int { return s.cfg.Workers }

// Worker returns the handle for worker w.
func (s *Sched[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("coarse: worker index %d out of range [0,%d)", w, len(s.workers)))
	}
	return &s.workers[w]
}

// Stats aggregates counters; call only after workers quiesce.
func (s *Sched[T]) Stats() sched.Stats { return sched.SumCounters(s.counters) }

// Push inserts under the global lock.
func (w *worker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	w.s.mu.Lock()
	w.s.heap.Push(p, v)
	w.s.mu.Unlock()
}

// Pop removes the exact global minimum: PopN into the worker's one-slot
// destination.
func (w *worker[T]) Pop() (uint64, T, bool) {
	if w.PopN(w.one[:]) == 0 {
		var zero T
		return pq.InfPriority, zero, false
	}
	it := w.one[0]
	w.one[0] = pq.Item[T]{}
	return it.P, it.V, true
}

// PushN inserts the whole batch under ONE global lock acquisition —
// for the serialization strawman the batch win is maximal, since the
// lock round trip is the entire cost of an operation. The pairs go
// into the heap straight from the caller's parallel slices
// (PushPairs), with no intermediate zip.
func (w *worker[T]) PushN(ps []uint64, vs []T) {
	sched.CheckPushN(len(ps), len(vs))
	if len(ps) == 0 {
		return
	}
	w.c.Pushes += uint64(len(ps))
	w.s.mu.Lock()
	w.s.heap.PushPairs(ps, vs)
	w.s.mu.Unlock()
}

// PopN removes the len(dst) smallest tasks, in order, under one global
// lock acquisition. Exactness is preserved per batch: the batch is a
// prefix of the global priority order at acquisition time.
func (w *worker[T]) PopN(dst []sched.Task[T]) int {
	if len(dst) == 0 {
		return 0
	}
	w.s.mu.Lock()
	n := len(w.s.heap.PopBatch(len(dst), dst[:0]))
	w.s.mu.Unlock()
	if n > 0 {
		w.c.Pops += uint64(n)
	} else {
		w.c.EmptyPops++
	}
	return n
}
