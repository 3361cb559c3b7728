// Package sched defines the interfaces and shared plumbing implemented by
// every priority scheduler in this repository: the Stealing Multi-Queue
// (internal/core), the classic Multi-Queue family and RELD (internal/mq),
// OBIM/PMOD (internal/obim) and the SprayList (internal/spray).
//
// # Model
//
// A Scheduler is created for a fixed number of workers. Each worker
// goroutine obtains its own Worker handle once, up front, and then uses
// only that handle; handles carry all thread-local state (local queues,
// stolen-task buffers, insert/delete batches, RNG) and are not safe for
// concurrent use. This mirrors the paper's thread-affinity model without
// requiring OS-thread pinning.
//
// # Relaxation contract
//
// Pop is allowed to be relaxed in two ways: it may return a task that is
// not the global minimum (bounded in expectation by the paper's rank
// theorems for SMQ), and it may return ok=false even though tasks exist
// elsewhere (they may be buried in another worker's local buffer).
// Algorithms therefore must not treat a single failed Pop as termination;
// see the Pending counter.
package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/contend"
	"repro/internal/pq"
)

// Task is a prioritized task as surfaced by the bulk operations: the
// priority paired with the opaque payload. It aliases the internal
// pq.Item so scheduler fast paths can move batches between worker
// scratch buffers and their heaps without copying field by field.
type Task[T any] = pq.Item[T]

// Worker is a per-goroutine handle into a scheduler.
// Priorities are uint64 with lower = higher priority.
//
// # Bulk operations
//
// PushN and PopN are the batched counterparts of Push and Pop. They
// carry the same relaxation contract per task, but amortize the
// scheduler's fixed per-operation costs (queue sampling, lock
// acquisition, atomic counter traffic) over the whole batch — the
// lever behind both the SMQ's steal buffers and the engineered
// MultiQueue's operation buffers. A batch may be placed as a unit
// (one sampled queue, one lock acquisition), so the rank relaxation
// of a batched operation grows with the batch size; callers trade
// rank for throughput exactly as with the schedulers' internal
// buffers.
//
// Pop() returns what PopN with a one-slot destination would, counters
// included: there is one delete path per scheduler, and Pop is its
// k = 1 case (TestPopIsPopNOfOne). An implementation keeps a separate
// scalar fast path only with the measurement that pays for it in its
// comment.
type Worker[T any] interface {
	// Push inserts a task.
	Push(p uint64, v T)
	// Pop removes some high-priority task. ok=false means this worker
	// found no task right now; it does NOT imply global emptiness.
	Pop() (p uint64, v T, ok bool)
	// PushN inserts a batch: ps[i] is the priority of vs[i]. The two
	// slices must have equal length; an empty batch is a no-op. The
	// scheduler does not retain either slice.
	PushN(ps []uint64, vs []T)
	// PopN removes up to len(dst) tasks into dst[:n] and returns n.
	// n == 0 with a non-empty dst means the same as a failed Pop: this
	// worker found nothing right now, NOT global emptiness. Tasks are
	// not guaranteed to arrive in priority order (each is individually
	// as relaxed as a scalar Pop).
	PopN(dst []Task[T]) int
}

// CheckPushN validates a PushN batch's parallel-slice lengths; every
// implementation calls it first so a mismatched call fails loudly at
// the boundary instead of corrupting a queue.
func CheckPushN(np, nv int) {
	if np != nv {
		panic(fmt.Sprintf("sched: PushN slice lengths differ: %d priorities, %d values", np, nv))
	}
}

// PushNLoop is the generic PushN fallback for schedulers without a
// batched insert fast path (OBIM already chunks internally, the
// SprayList has no per-operation lock to amortize): it simply loops
// the scalar Push, preserving the scalar counters and semantics.
func PushNLoop[T any](w Worker[T], ps []uint64, vs []T) {
	CheckPushN(len(ps), len(vs))
	for i, p := range ps {
		w.Push(p, vs[i])
	}
}

// PopNLoop is the generic PopN fallback: scalar Pops until dst is full
// or the worker comes up empty.
func PopNLoop[T any](w Worker[T], dst []Task[T]) int {
	n := 0
	for n < len(dst) {
		p, v, ok := w.Pop()
		if !ok {
			break
		}
		dst[n] = Task[T]{P: p, V: v}
		n++
	}
	return n
}

// Scheduler is a relaxed concurrent priority scheduler for a fixed set of
// workers.
type Scheduler[T any] interface {
	// Workers reports the number of worker slots.
	Workers() int
	// Worker returns the handle for worker w in [0, Workers()).
	// Each handle must be claimed by exactly one goroutine.
	Worker(w int) Worker[T]
	// Stats aggregates per-worker counters. It must only be called once
	// all worker goroutines have quiesced (e.g. after a WaitGroup join).
	Stats() Stats
}

// Stats aggregates scheduler-level counters across workers. All counts are
// totals since scheduler creation.
type Stats struct {
	Pushes     uint64 // tasks inserted
	Pops       uint64 // tasks successfully removed
	EmptyPops  uint64 // Pop calls that returned ok=false
	Steals     uint64 // successful steal operations (batches, not tasks)
	StolenTask uint64 // tasks obtained via stealing
	StealFails uint64 // steal attempts that found nothing to take
	LockFails  uint64 // failed try-lock acquisitions (lock-based schedulers)
	Remote     uint64 // queue accesses to a different (virtual) NUMA node

	// Eliminations counts pops served directly from an elimination
	// layer: a below-minimum insert and a concurrent pop met in an
	// exchange slot and cancelled out without touching the structure
	// (CBPQ's exchange array). Zero for schedulers without one.
	Eliminations uint64
	// Combines counts inserts that were merged into the structure in
	// bulk by a single combining rebuild instead of one structural
	// operation each (CBPQ's insertion buffer plus parked exchange
	// entries). Zero for schedulers without a combining path.
	Combines uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Pushes += other.Pushes
	s.Pops += other.Pops
	s.EmptyPops += other.EmptyPops
	s.Steals += other.Steals
	s.StolenTask += other.StolenTask
	s.StealFails += other.StealFails
	s.LockFails += other.LockFails
	s.Remote += other.Remote
	s.Eliminations += other.Eliminations
	s.Combines += other.Combines
}

// Counters is the per-worker, unsynchronized statistics block. Workers
// update their own Counters without atomics (each is owned by a single
// goroutine); Stats() reads them after quiescence. Trailing padding
// rounds each block up to a whole number of cache lines plus one, so
// adjacent workers' counters in the schedulers' contiguous counter
// slices never share a line: every Push/Pop increments one of these
// fields, and without the pad those increments would false-share —
// exactly the layout cost the contend package exists to eliminate.
type Counters struct {
	Stats
	_ [2*contend.CacheLineSize - unsafe.Sizeof(Stats{})%contend.CacheLineSize]byte
}

// SumCounters aggregates a slice of per-worker counters.
func SumCounters(cs []Counters) Stats {
	var total Stats
	for i := range cs {
		total.Add(cs[i].Stats)
	}
	return total
}

// Pending counts in-flight tasks for termination detection: algorithms
// increment before pushing a task and decrement after fully processing a
// popped task (including its follow-on pushes). The schedulers themselves
// never touch it. When Pending reaches zero no task exists anywhere — not
// in a queue, not in a local buffer, not being executed.
//
// # Emptiness vs quiescence
//
// A zero count alone means only EMPTINESS: no task exists RIGHT NOW.
// Whether that is also the end of the run depends on who can still
// create tasks. Pending therefore distinguishes two conditions:
//
//   - Done() — momentarily idle. A termination signal only where every
//     task descends from seeds registered before workers start, so that
//     once the count hits zero no source of new work remains; the
//     schedulers' own drain tests use it that way.
//   - Quiesced() — drained AND closed. This is what the worker loop
//     exits on, in both of its forms. Run is the closed stream: all work
//     descends from the seeds, and it closes on entry. Stream with a
//     feed is the open one (internal/serve): tasks arrive from outside
//     the worker set, so the count legitimately hits zero between
//     arrival bursts, and a worker that exited on Done() there would
//     abandon the stream early. The loop calls Close() once the feed
//     reports the stream ended — after the Inc of its final task.
//
// Close() is a promise about future Incs from OUTSIDE the worker set:
// after Close, only workers may register new tasks, and only as
// follow-ons of tasks they are currently processing (the Inc of a
// follow-on precedes the parent's Dec, so the count cannot touch zero
// while such work exists). Under that protocol Quiesced() is stable:
// once it reports true no task exists and none can ever be created.
//
// # Delta batching
//
// The worker loop (Stream) folds a whole batch's accounting into one atomic
// add: after popping k tasks, processing all of them, and collecting m
// follow-on tasks in the worker's Sink, a single Inc(m−k) immediately
// before the PushN that publishes the m tasks is equivalent to m
// scalar Incs and k scalar Decs. The direction of each half stays
// safe: the +m registers the collected tasks while they are still
// buffered (they count as in-flight the whole time), and the −k only
// retires tasks whose processing — including buffering their
// follow-ons — has fully completed. Pending therefore never dips to
// zero while work exists, at the cost of transiently over-counting,
// which merely makes idle workers re-poll.
type Pending struct {
	n      atomic.Int64
	closed atomic.Bool
}

// Inc registers delta new in-flight tasks.
func (p *Pending) Inc(delta int64) { p.n.Add(delta) }

// Dec retires one in-flight task.
func (p *Pending) Dec() { p.n.Add(-1) }

// Load returns the current in-flight count.
func (p *Pending) Load() int64 { return p.n.Load() }

// Done reports emptiness: no task exists right now. This is NOT a
// termination signal for streaming workloads — see the type docs.
func (p *Pending) Done() bool { return p.n.Load() == 0 }

// Close records that no further tasks will be registered from outside
// the worker set. It must be called after the Inc of the final external
// task (run-to-completion drivers close immediately after seeding).
// Closing is idempotent.
func (p *Pending) Close() { p.closed.Store(true) }

// Closed reports whether the external task stream has been closed.
func (p *Pending) Closed() bool { return p.closed.Load() }

// Quiesced reports termination for streaming workloads: the external
// stream is closed and no task remains anywhere. The closed flag is
// read first, so a true result cannot race with a late external Inc
// (Close happens after the final external Inc by contract).
func (p *Pending) Quiesced() bool { return p.closed.Load() && p.n.Load() == 0 }

// Backoff tiers. An idle episode — the failed polls between two Resets —
// escalates by how long it has lasted, not by how often it has polled: a
// poll costs from tens of nanoseconds to microseconds depending on the
// scheduler, so a poll count says little about how long work has been
// missing, and the step it guards is expensive. A time.Sleep of any
// length returns after about 1.07 ms on the 2-core benchmark host (the
// sleeper's thread parks and is woken by the timer), whatever duration
// it asks for, so sleeping is only worth it once an episode has already
// lasted about that long: until then the worker busy-pauses (another
// worker is likely mid-push) and then yields the processor between
// polls, and the work it was waiting for is picked up within a poll of
// arriving. backoffSpinBudget is that bound, half the measured cost of
// one sleep: an episode that ends inside it never pays for a sleep, one
// that outlasts it has wasted at most half of one. Sustained idleness
// still ends in bounded sleeps, so an idle worker costs ~0 CPU; the sleep
// cap bounds the wake-up latency a sleeping worker adds when work arrives.
const (
	backoffSpinTier   = 6 // polls 1..6: busy pause, 2^poll loads, no clock read
	backoffSpinBudget = 500 * time.Microsecond
	backoffSleepMin   = 20 * time.Microsecond
	backoffSleepMax   = time.Millisecond
)

// Backoff is a three-tier spin/yield/sleep backoff used by worker loops
// when Pop fails but Pending is nonzero. The zero value is ready.
type Backoff struct {
	polls  int       // failed polls of this episode
	start  time.Time // of the episode's yield tier
	sleeps int       // > 0 in the sleep tier: the ordinal of the next sleep
	// pause is the spin tier's load target: atomic loads of an own
	// field are real memory operations the compiler will not dead-code
	// eliminate, and the field sits in backoff-owner memory so the
	// spin touches no shared cache line.
	pause atomic.Uint64
}

// Wait performs one backoff step.
func (b *Backoff) Wait() {
	b.polls++
	switch {
	case b.polls <= backoffSpinTier:
		for i := 0; i < 1<<b.polls; i++ {
			_ = b.pause.Load()
		}
	case b.sleeps == 0:
		if b.polls == backoffSpinTier+1 {
			b.start = time.Now()
		}
		runtime.Gosched()
		if time.Since(b.start) >= backoffSpinBudget {
			b.sleeps = 1
		}
	default:
		// 20µs << 6 exceeds the 1ms cap.
		time.Sleep(min(backoffSleepMin<<min(b.sleeps-1, 6), backoffSleepMax))
		b.sleeps++
	}
}

// Sleeping reports whether the idle episode has outlasted the spin
// budget, so that every further Wait sleeps — the point at which Stream
// offers the slot to its park hook instead, so that an elastic pool does
// not pay the wake-up latency tax per task burst.
func (b *Backoff) Sleeping() bool { return b.sleeps > 0 }

// Reset ends the idle episode, after a successful Pop.
func (b *Backoff) Reset() { b.polls, b.sleeps = 0, 0 }
