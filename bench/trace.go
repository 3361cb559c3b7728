package main

import (
	"time"

	"repro/internal/contend"
	"repro/internal/sched"
)

// The tracer attributes worker time to layers from outside the library:
// it wraps the scheduler handed to a driver (smq.SSSP, smq.Process,
// serve.New, the hold loop) and records one span around every
// Pop/PopN/Push/PushN. What happens between two calls belongs to the
// driver; whether that gap is idling or work is decided by the call
// before it.

type spanKind uint8

const (
	spanPop spanKind = iota
	spanPush
)

// span is one scheduler call. Its parent is the runSpan that owns the
// buffer it sits in, so the parent is not repeated per span.
type span struct {
	start, end int64 // ns since the run span's start
	tasks      int32 // tasks moved by the call
	kind       spanKind
}

func (s span) emptyPop() bool { return s.kind == spanPop && s.tasks == 0 }

// runSpan is one traced repetition: the parent of every span recorded
// while it runs, carrying the identifiers the spans share.
type runSpan struct {
	workload, sched string
	rep             int
	start           time.Time
	workers         []contend.Padded[workerSpans]
}

// spanCap bounds one worker's buffer (24 B per span). A worker that
// makes more calls than this in one repetition has the rest folded into
// layerTimes as they happen, which costs the same two clock reads and
// keeps memory fixed.
const spanCap = 1 << 20

// tracer owns the span buffers, allocated and touched once so that no
// traced repetition pays for page faults, and reused by every run span.
type tracer struct{ bufs [][]span }

func newTracer(workers int) *tracer {
	t := &tracer{bufs: make([][]span, workers)}
	for i := range t.bufs {
		t.bufs[i] = make([]span, spanCap)
		for j := range t.bufs[i] {
			t.bufs[i][j].tasks = 1
		}
	}
	return t
}

// begin starts the run span of one traced repetition. Only one run span
// of a tracer is live at a time.
func (t *tracer) begin(workload, schedName string, rep, workers int) *runSpan {
	r := &runSpan{workload: workload, sched: schedName, rep: rep, start: time.Now(),
		workers: make([]contend.Padded[workerSpans], workers)}
	for i := range r.workers {
		r.workers[i].Value.spans = t.bufs[i][:0]
	}
	return r
}

// workerSpans is one worker's share of a run span: written by the one
// goroutine that owns the worker handle, read after the run.
type workerSpans struct {
	spans []span
	over  layerTimes // spans past the buffer's capacity
	last  span       // the most recent span, kept for the overflow path
}

func (w *workerSpans) record(s span) {
	if len(w.spans) < cap(w.spans) {
		w.spans = append(w.spans, s)
	} else {
		w.over.add(w.last, s)
	}
	w.last = s
}

// layerTimes is the attribution of worker time. pop + push + idle + body
// equals total, the sum of the worker spans (first call's start to last
// call's end): pop and push are the recorded spans, and each gap between
// two calls is idle when the call before it was an empty pop (backoff
// and the termination check follow) and body otherwise (the task, the
// Pending accounting, the driver's own bookkeeping).
type layerTimes struct {
	pop, push, idle, body, total int64 // ns
	popTasks, pushTasks          int64
	popCalls, emptyPops, spans   int64
}

// add accounts span s and the gap that separates it from prev.
func (a *layerTimes) add(prev, s span) {
	gap := s.start - prev.end
	if prev.emptyPop() {
		a.idle += gap
	} else {
		a.body += gap
	}
	a.total += gap
	a.addSpan(s)
}

func (a *layerTimes) addSpan(s span) {
	d := s.end - s.start
	a.total += d
	a.spans++
	if s.kind == spanPop {
		a.pop += d
		a.popTasks += int64(s.tasks)
		a.popCalls++
		if s.tasks == 0 {
			a.emptyPops++
		}
	} else {
		a.push += d
		a.pushTasks += int64(s.tasks)
	}
}

func (a *layerTimes) merge(b layerTimes) {
	a.pop += b.pop
	a.push += b.push
	a.idle += b.idle
	a.body += b.body
	a.total += b.total
	a.popTasks += b.popTasks
	a.pushTasks += b.pushTasks
	a.popCalls += b.popCalls
	a.emptyPops += b.emptyPops
	a.spans += b.spans
}

// attribute folds a finished run span into layer times, summed over
// its workers.
func (r *runSpan) attribute() layerTimes {
	var sum layerTimes
	for i := range r.workers {
		w := &r.workers[i].Value
		var a layerTimes
		for j, s := range w.spans {
			if j == 0 {
				a.addSpan(s)
			} else {
				a.add(w.spans[j-1], s)
			}
		}
		sum.merge(a)
		sum.merge(w.over)
	}
	return sum
}

// traced returns s unchanged when run is nil, so an untraced repetition
// hands the library the scheduler the zoo built and nothing else.
func traced[T any](s sched.Scheduler[T], run *runSpan) sched.Scheduler[T] {
	if run == nil {
		return s
	}
	return &tracedScheduler[T]{inner: s, run: run}
}

type tracedScheduler[T any] struct {
	inner sched.Scheduler[T]
	run   *runSpan
}

func (t *tracedScheduler[T]) Workers() int       { return t.inner.Workers() }
func (t *tracedScheduler[T]) Stats() sched.Stats { return t.inner.Stats() }

func (t *tracedScheduler[T]) Worker(i int) sched.Worker[T] {
	return &tracedWorker[T]{inner: t.inner.Worker(i), buf: &t.run.workers[i].Value, start: t.run.start}
}

// tracedWorker is as single-goroutine as the handle it wraps.
type tracedWorker[T any] struct {
	inner sched.Worker[T]
	buf   *workerSpans
	start time.Time
}

func (w *tracedWorker[T]) now() int64 { return int64(time.Since(w.start)) }

func (w *tracedWorker[T]) Push(p uint64, v T) {
	t0 := w.now()
	w.inner.Push(p, v)
	w.buf.record(span{start: t0, end: w.now(), tasks: 1, kind: spanPush})
}

func (w *tracedWorker[T]) PushN(ps []uint64, vs []T) {
	t0 := w.now()
	w.inner.PushN(ps, vs)
	w.buf.record(span{start: t0, end: w.now(), tasks: int32(len(ps)), kind: spanPush})
}

func (w *tracedWorker[T]) Pop() (uint64, T, bool) {
	t0 := w.now()
	p, v, ok := w.inner.Pop()
	n := int32(0)
	if ok {
		n = 1
	}
	w.buf.record(span{start: t0, end: w.now(), tasks: n, kind: spanPop})
	return p, v, ok
}

func (w *tracedWorker[T]) PopN(dst []sched.Task[T]) int {
	t0 := w.now()
	n := w.inner.PopN(dst)
	w.buf.record(span{start: t0, end: w.now(), tasks: int32(n), kind: spanPop})
	return n
}
