package sched

import (
	"sync"
	"time"

	"repro/internal/contend"
)

// Body processes one popped task on worker wid. It emits follow-on
// tasks into out and reports whether the popped task was stale —
// superseded by a better value written concurrently (wasted work).
type Body[T any] func(wid int, out *Sink[T], p uint64, v T) (stale bool)

// Sink buffers the follow-on tasks a worker emits, as parallel
// priority/value runs ready for a single PushN, and owns their Pending
// accounting: it registers a run with the shared counter BEFORE the
// PushN that publishes it (see Pending, "Delta batching"). Relaxed
// schedulers may delay visibility anyway, so algorithms already tolerate
// the window between emitting a task and its becoming poppable.
//
// A Sink is itself a Worker, for one goroutine like the handle behind
// it: Push and PushN buffer, Pop and PopN publish and then delegate.
type Sink[T any] struct {
	ps      []uint64
	vs      []T
	w       Worker[T]
	pending *Pending
}

// NewSink returns a sink over handle w that registers its tasks with
// pending. Drivers seed through one (and Flush it) before calling Run.
func NewSink[T any](w Worker[T], pending *Pending) *Sink[T] {
	return &Sink[T]{w: w, pending: pending}
}

// Len is the number of buffered, not yet published tasks.
func (o *Sink[T]) Len() int { return len(o.ps) }

// Push buffers one follow-on task.
func (o *Sink[T]) Push(p uint64, v T) {
	o.ps = append(o.ps, p)
	o.vs = append(o.vs, v)
}

// PushN buffers a batch of follow-on tasks.
func (o *Sink[T]) PushN(ps []uint64, vs []T) {
	CheckPushN(len(ps), len(vs))
	o.ps = append(o.ps, ps...)
	o.vs = append(o.vs, vs...)
}

// Pop publishes the buffered tasks, then pops from the scheduler.
func (o *Sink[T]) Pop() (uint64, T, bool) {
	o.publish(0)
	return o.w.Pop()
}

// PopN publishes the buffered tasks, then pops from the scheduler.
func (o *Sink[T]) PopN(dst []Task[T]) int {
	o.publish(0)
	return o.w.PopN(dst)
}

// Flush publishes the buffered tasks.
func (o *Sink[T]) Flush() { o.publish(0) }

// publish registers the buffered tasks, retires popped fully processed
// tasks in the same add, pushes the run, and zeroes it so pointerful
// payloads are not retained across batches.
func (o *Sink[T]) publish(popped int) {
	if delta := len(o.ps) - popped; delta != 0 {
		o.pending.Inc(int64(delta))
	}
	if len(o.ps) > 0 {
		o.w.PushN(o.ps, o.vs)
		o.ps = o.ps[:0]
		clear(o.vs)
		o.vs = o.vs[:0]
	}
}

// runWorker is one worker's loop state, kept in contend.Padded slots so
// adjacent workers' sinks and counters never share a cache line.
type runWorker[T any] struct {
	out          Sink[T]
	tasks, stale uint64
}

// Feed is worker 0's ingest step in Stream: without blocking, it moves
// what arrived from outside the worker set into out (Push, then Flush so
// that Pending covers it) and reports whether that was progress — the
// worker's idle episode ends — and whether the stream is still open.
type Feed[T any] func(out *Sink[T]) (progress, open bool)

// Run is the run-to-completion case of Stream: every task descends from
// seeds the caller registered with pending before calling, so the stream
// is closed on entry, nothing is fed and nobody parks.
func Run[T any](s Scheduler[T], pending *Pending, workers, batch int, body Body[T]) (tasks, stale uint64, elapsed time.Duration) {
	pending.Close()
	return Stream(s, pending, workers, batch, body, nil, nil)
}

// Stream is the worker loop, the only one in the repository: one
// goroutine per worker pops up to batch tasks per PopN, calls body for
// each, and publishes everything the batch emitted through the worker's
// Sink — one Pending add (+emitted −popped), then one PushN. batch is a
// rank trade, not just a throughput knob: a popped batch commits the
// worker to its tasks before it looks at the queues again, and for the
// Multi-Queue family the whole batch comes from ONE two-choice winner
// (road-graph SSSP through the classic MQ runs ~30% more tasks at 64 than
// at 8). A popped batch is private to its worker until its last body
// returns, but the tasks behind it are not: an SMQ owner republishes its
// steal buffer on every operation, sized to the batch it just took, so
// coarse bodies still spread across workers
// (TestProcessSpreadsCoarseTasks).
//
// Worker 0 polls feed before every PopN (internal/serve says why the
// ingesting side must be a worker that also pops). When feed reports the
// stream ended it is not called again, and the loop closes pending —
// after the final external Inc, as Close requires. Workers exit on
// Quiesced(), so a queue that drains to empty while the stream is open
// ends nothing. A nil feed is a stream the caller already closed.
//
// park, when non-nil, is offered to any worker but worker 0 — the one
// that feeds — whose idle episode has reached the sleep tier: it blocks
// for as long as the caller's policy keeps the slot parked and returns
// true, or refuses with false and the worker sleeps. Whoever wakes parked
// workers must wake them all once the stream ends.
//
// Stream returns the tasks processed, how many of them body reported
// stale, and the wall-clock time of the parallel phase.
func Stream[T any](s Scheduler[T], pending *Pending, workers, batch int, body Body[T], feed Feed[T], park func(wid int) bool) (tasks, stale uint64, elapsed time.Duration) {
	state := make([]contend.Padded[runWorker[T]], workers)
	start := time.Now()
	var wg sync.WaitGroup
	for wid := range state {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, st := s.Worker(wid), &state[wid].Value
			st.out.w, st.out.pending = w, pending
			popBuf := make([]Task[T], batch)
			feeding := wid == 0 && feed != nil
			var b Backoff
			for {
				progress := false
				if feeding {
					if progress, feeding = feed(&st.out); !feeding {
						st.out.Flush()
						pending.Close()
					}
				}
				k := w.PopN(popBuf)
				if k == 0 {
					switch {
					case progress:
						b.Reset()
					case pending.Quiesced():
						return
					case wid != 0 && park != nil && b.Sleeping() && park(wid):
						b.Reset()
					default:
						b.Wait()
					}
					continue
				}
				b.Reset()
				st.tasks += uint64(k)
				for i := 0; i < k; i++ {
					if body(wid, &st.out, popBuf[i].P, popBuf[i].V) {
						st.stale++
					}
				}
				clear(popBuf[:k])
				st.out.publish(k)
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	for i := range state {
		tasks += state[i].Value.tasks
		stale += state[i].Value.stale
	}
	return tasks, stale, elapsed
}
