package sched_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coarse"
	"repro/internal/core"
	"repro/internal/mq"
	"repro/internal/sched"
)

// guardScheduler wraps a scheduler so that every publication is checked
// against the shared Pending: at the moment a batch reaches PushN its
// tasks must already be registered. They are not poppable yet, so no
// other worker can have retired them, and the counter must cover at
// least the batch — the delta-batching invariant that Pending is never
// zero while a sink holds tasks.
type guardScheduler struct {
	sched.Scheduler[uint32]
	pending    *sched.Pending
	violations atomic.Int64
}

func (g *guardScheduler) Worker(i int) sched.Worker[uint32] {
	return &guardWorker{Worker: g.Scheduler.Worker(i), g: g}
}

type guardWorker struct {
	sched.Worker[uint32]
	g *guardScheduler
}

func (w *guardWorker) PushN(ps []uint64, vs []uint32) {
	if w.g.pending.Load() < int64(len(ps)) {
		w.g.violations.Add(1)
	}
	w.Worker.PushN(ps, vs)
}

// TestRunPendingCoversBufferedTasks drives a binary expansion (every
// task below the cutoff emits two) through Run at several batch sizes
// and checks conservation, the returned tallies and the invariant above.
func TestRunPendingCoversBufferedTasks(t *testing.T) {
	const workers, depth = 4, 12
	want := uint64(1)<<(depth+1) - 1
	makers := map[string]func() sched.Scheduler[uint32]{
		"smq":    func() sched.Scheduler[uint32] { return core.NewStealingMQ[uint32](core.Config{Workers: workers}) },
		"mq":     func() sched.Scheduler[uint32] { return mq.New[uint32](mq.Config{Workers: workers}) },
		"coarse": func() sched.Scheduler[uint32] { return coarse.New[uint32](coarse.Config{Workers: workers}) },
	}
	for name, mk := range makers {
		for _, batch := range []int{1, 8} {
			var pending sched.Pending
			g := &guardScheduler{Scheduler: mk(), pending: &pending}
			seeds := sched.NewSink(g.Worker(0), &pending)
			seeds.Push(0, 1)
			seeds.Flush()
			seen := make([]atomic.Int32, want+1)
			tasks, stale, _ := sched.Run(g, &pending, workers, batch,
				func(_ int, out *sched.Sink[uint32], p uint64, id uint32) bool {
					if pending.Load() <= 0 {
						g.violations.Add(1) // the task being processed is in flight
					}
					seen[id].Add(1)
					if id >= 1<<depth {
						return true // leaves count as stale, to exercise the tally
					}
					out.Push(p+1, 2*id)
					out.Push(p+1, 2*id+1)
					return false
				})
			if tasks != want || stale != 1<<depth {
				t.Errorf("%s batch %d: %d tasks (%d stale), want %d (%d)",
					name, batch, tasks, stale, want, 1<<depth)
			}
			for id := uint32(1); id <= uint32(want); id++ {
				if n := seen[id].Load(); n != 1 {
					t.Errorf("%s batch %d: node %d visited %d times", name, batch, id, n)
					break
				}
			}
			if v := g.violations.Load(); v != 0 {
				t.Errorf("%s batch %d: Pending did not cover buffered tasks %d times", name, batch, v)
			}
			if !pending.Quiesced() {
				t.Errorf("%s batch %d: Pending = %d after the run", name, batch, pending.Load())
			}
		}
	}
}

// TestSinkIsAWorker pins the handle contract of a Sink: pushes buffer
// (nothing reaches the scheduler), Pop, PopN and Flush publish first,
// registering each task with Pending before it is pushed.
func TestSinkIsAWorker(t *testing.T) {
	s := coarse.New[uint32](coarse.Config{Workers: 1})
	var pending sched.Pending
	out := sched.NewSink(s.Worker(0), &pending)
	out.Push(7, 70)
	out.PushN([]uint64{3, 5}, []uint32{30, 50})
	if st := s.Stats(); st.Pushes != 0 || pending.Load() != 0 || out.Len() != 3 {
		t.Fatalf("buffered pushes leaked: %d pushed, Pending %d, Len %d", st.Pushes, pending.Load(), out.Len())
	}
	if p, v, ok := out.Pop(); !ok || p != 3 || v != 30 || pending.Load() != 3 {
		t.Fatalf("Pop after buffering = (%d, %d, %v) with Pending %d, want (3, 30, true) with 3", p, v, ok, pending.Load())
	}
	out.Push(1, 10)
	dst := make([]sched.Task[uint32], 4)
	if n := out.PopN(dst); n != 3 || dst[0].V != 10 || dst[1].V != 50 || dst[2].V != 70 {
		t.Fatalf("PopN after buffering = %d tasks %v, want 10, 50, 70", n, dst[:n])
	}
	out.Push(2, 20)
	out.Flush()
	if got, reg := s.Stats().Pushes, pending.Load(); got != 5 || reg != 5 || out.Len() != 0 {
		t.Fatalf("after Flush: %d pushed, Pending %d, Len %d, want 5, 5 and 0", got, reg, out.Len())
	}
}

// TestStreamFeedsAndParks drives the streaming form directly. The feed
// emits a batch, then nothing until some worker has parked — so between
// batches the queue is empty and Pending zero with the stream still
// open, the state a run-to-completion loop would exit in — then wakes
// the parked workers and emits the next; bodies emit follow-ons. Every
// fed task and every follow-on must run exactly once, park must never be
// offered to worker 0, and the loop must outlive the empty gaps and
// return only once feed has reported the stream ended.
func TestStreamFeedsAndParks(t *testing.T) {
	const workers, batches, perBatch, chain = 3, 4, 16, 3
	const fed = batches * perBatch
	var (
		pending sched.Pending
		offers  [workers]atomic.Int32
		parked  atomic.Int32
		ended   atomic.Bool
		seen    [fed * (chain + 1)]atomic.Int32
		wake    = make(chan struct{})
		emitted int // owned by worker 0
	)
	park := func(wid int) bool {
		offers[wid].Add(1)
		if ended.Load() {
			return false
		}
		parked.Add(1)
		<-wake // one token per parked worker, or the close at the end
		return true
	}
	feed := func(wid int, out *sched.Sink[uint32]) (progress, open bool) {
		if wid != 0 {
			return false, true
		}
		if ended.Load() {
			t.Error("feed called after it reported the stream ended")
		}
		if emitted == batches {
			ended.Store(true)
			close(wake)
			return false, false
		}
		if emitted > 0 && parked.Load() == 0 {
			return false, true
		}
		if pending.Closed() {
			t.Error("Pending closed while the stream is open")
		}
		for n := parked.Swap(0); n > 0; n-- {
			wake <- struct{}{}
		}
		for i := 0; i < perBatch; i++ {
			out.Push(0, uint32((emitted*perBatch+i)*(chain+1)))
		}
		out.Flush()
		emitted++
		return true, true
	}
	s := core.NewStealingMQ[uint32](core.Config{Workers: workers})
	tasks, _, _ := sched.Stream(s, &pending, workers, 8,
		func(_ int, out *sched.Sink[uint32], p uint64, id uint32) bool {
			seen[id].Add(1)
			if (id+1)%(chain+1) != 0 {
				out.Push(p+1, id+1)
			}
			return false
		}, feed, park)
	if !ended.Load() {
		t.Fatal("Stream returned before feed reported the stream ended")
	}
	if want := uint64(len(seen)); tasks != want {
		t.Errorf("%d tasks, want %d fed + %d follow-ons", tasks, fed, fed*chain)
	}
	for id := range seen {
		if n := seen[id].Load(); n != 1 {
			t.Errorf("task %d ran %d times", id, n)
			break
		}
	}
	if n := offers[0].Load(); n != 0 {
		t.Errorf("park offered to worker 0 %d times", n)
	}
	if offers[1].Load()+offers[2].Load() == 0 {
		t.Error("park never offered to an idle worker")
	}
	if !pending.Quiesced() {
		t.Errorf("Pending = %d, closed %v after the run", pending.Load(), pending.Closed())
	}
}

// popWatch wraps a scheduler's handles to record, per worker, what the
// handle's last PopN returned (-1 before the first). A handle and its
// worker's feed calls share one goroutine, so the record needs no
// synchronization.
type popWatch struct {
	sched.Scheduler[uint32]
	last []int
}

func (s *popWatch) Worker(i int) sched.Worker[uint32] {
	s.last[i] = -1
	return &popWatchWorker{Worker: s.Scheduler.Worker(i), last: &s.last[i]}
}

type popWatchWorker struct {
	sched.Worker[uint32]
	last *int
}

func (w *popWatchWorker) PopN(dst []sched.Task[uint32]) int {
	*w.last = w.Worker.PopN(dst)
	return *w.last
}

// TestStreamIdleFeed drives the work-conserving feed. Tasks come from a
// shared source in chunks. Worker 0 takes chunks until only a reserve is
// left, then ends the stream once the source is empty; the other workers
// take chunks whenever the loop offers them the feed, and hold each for a
// few milliseconds before publishing it — so the last chunk is usually
// still in the hands of a slow idle feeder when worker 0 ends the stream. A
// non-zero worker must be offered the feed only after its PopN came back
// empty, never while Pending is closed (the close waits for feeders
// inside, and none enters after it), and every task must run exactly
// once.
func TestStreamIdleFeed(t *testing.T) {
	const workers, total, chunk, reserve, rounds = 3, 512, 4, 8 * 4, 5
	before := runtime.NumGoroutine()
	var raced, idleFed int
	for round := 0; round < rounds; round++ {
		var (
			pending sched.Pending
			next    atomic.Int64 // the source: tasks below it have been taken
			ended   atomic.Bool  // worker 0's feed has reported the end
			endRace atomic.Bool  // an idle feeder published a chunk after that
			fed     atomic.Int32 // chunks idle feeders published
			seen    [total]atomic.Int32
		)
		s := &popWatch{Scheduler: core.NewStealingMQ[uint32](core.Config{Workers: workers}), last: make([]int, workers)}
		take := func(out *sched.Sink[uint32]) bool {
			lo := next.Add(chunk) - chunk
			for id := lo; id < min(lo+chunk, total); id++ {
				out.Push(uint64(id), uint32(id))
			}
			return lo < total
		}
		feed := func(wid int, out *sched.Sink[uint32]) (progress, open bool) {
			if wid == 0 {
				if n := next.Load(); n >= total {
					ended.Store(true)
					return false, false
				} else if n >= total-reserve {
					return false, true
				}
				progress = take(out)
				out.Flush()
				return progress, true
			}
			if s.last[wid] != 0 {
				t.Errorf("worker %d offered the feed after a PopN of %d", wid, s.last[wid])
			}
			if pending.Closed() {
				t.Errorf("worker %d offered the feed after the stream ended", wid)
			}
			if !take(out) {
				return false, true
			}
			time.Sleep(3 * time.Millisecond)
			out.Flush()
			if pending.Closed() {
				t.Errorf("worker %d flushed fed tasks after Pending closed", wid)
			}
			if ended.Load() {
				endRace.Store(true)
			}
			fed.Add(1)
			return true, true
		}
		tasks, _, _ := sched.Stream(s, &pending, workers, 8,
			func(_ int, _ *sched.Sink[uint32], _ uint64, id uint32) bool {
				seen[id].Add(1)
				return false
			}, feed, nil)
		if tasks != total {
			t.Errorf("round %d: %d tasks, want %d", round, tasks, total)
		}
		for id := range seen {
			if n := seen[id].Load(); n != 1 {
				t.Errorf("round %d: task %d ran %d times", round, id, n)
				break
			}
		}
		if !pending.Quiesced() {
			t.Errorf("round %d: Pending = %d, closed %v after the run", round, pending.Load(), pending.Closed())
		}
		if endRace.Load() {
			raced++
		}
		idleFed += int(fed.Load())
	}
	// Worker 0 may take one chunk past the threshold it checked.
	if idleFed < rounds*(reserve/chunk-1) {
		t.Errorf("idle feeders published %d chunks in %d rounds, want at least %d per round", idleFed, rounds, reserve/chunk-1)
	}
	if raced == 0 {
		t.Errorf("in none of %d rounds did the stream end while an idle feeder held a chunk", rounds)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before, %d after", before, after)
	}
}
