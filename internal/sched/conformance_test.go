package sched_test

// Cross-scheduler conformance suite: every scheduler registered in this
// repository — whatever its relaxation strategy — must satisfy the same
// concurrency contract, which the graph algorithms and the harness rely
// on:
//
//  1. no task is lost: everything pushed is eventually popped;
//  2. no task is duplicated: each pushed task is popped exactly once;
//  3. Pending-based termination drains all tasks: workers exiting only
//     when Pop fails AND Pending.Load() == 0 leave nothing behind in queues
//     or thread-local buffers;
//  4. Stats() accounting is exact after a drain: Pops == Pushes.
//
// The suite runs the whole zoo registry plus the non-default variants
// below through the same concurrent push/pop workload (run it with
// -race to exercise the locking and the lock-free publication paths).

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cbpq"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// conformanceSchedulers is every configuration under test: the
// registry's default-configured lineup, then one variant per distinct
// code path the defaults leave cold (policy combinations, buffer and
// stickiness settings, relaxation bounds, NUMA sampling), built through
// the same family builders as the registry.
func conformanceSchedulers() []zoo.Spec[uint32] {
	return append(zoo.Lineup[uint32](),
		zoo.MQ[uint32]("MQ/temporal", mq.Config{C: 4,
			Insert: mq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
			Delete: mq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64}),
		zoo.MQ[uint32]("MQ/peektops", mq.Config{C: 4, PeekTops: true}),
		zoo.MQ[uint32]("MQ/numa", mq.Config{C: 4, NUMANodes: 2, NUMAWeightK: 8}),
		// Tiny chunks force constant freeze/split/rebuild races.
		zoo.CBPQ[uint32]("CBPQ/chunk8", cbpq.Config{ChunkCap: 8}),
		zoo.MQ[uint32]("EMQ/unbuffered", engineered(func(c *mq.Config) { c.Stickiness, c.BatchInsert, c.BatchDelete = 1, 1, 1 })),
		zoo.MQ[uint32]("EMQ/bigbuf", engineered(func(c *mq.Config) { c.Stickiness, c.BatchInsert, c.BatchDelete = 64, 64, 64 })),
		zoo.MQ[uint32]("EMQ/numa", engineered(func(c *mq.Config) { c.NUMANodes, c.NUMAWeightK = 2, 8 })),
		zoo.KLSM[uint32]("KLSM/strict", klsm.Config{Relaxation: klsm.Strict}),
		zoo.KLSM[uint32]("KLSM/k4", klsm.Config{Relaxation: 4}),
		zoo.KLSM[uint32]("KLSM/k4096", klsm.Config{Relaxation: 4096}),
	)
}

// engineered is mq.Engineered with edit applied.
func engineered(edit func(*mq.Config)) mq.Config {
	c := mq.Engineered(0)
	edit(&c)
	return c
}

// drainConcurrently runs the canonical Pending-protocol workload: each
// worker pushes its slice of unique task ids (with colliding priorities
// to exercise tie handling), popping concurrently, and keeps popping
// until Pending reports global emptiness. It returns per-task pop counts.
func drainConcurrently(t *testing.T, s sched.Scheduler[uint32], workers, perWorker int) []int32 {
	t.Helper()
	total := workers * perWorker
	counts := make([]int32, total)
	atomicCounts := make([]atomic.Int32, total)
	var pending sched.Pending
	pending.Inc(int64(total))

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			next := 0
			var b sched.Backoff
			for {
				// Interleave pushes with pops so queues see concurrent
				// traffic in both directions.
				if next < perWorker {
					v := uint32(wid*perWorker + next)
					w.Push(uint64(v%509), v)
					next++
				}
				p, v, ok := w.Pop()
				if ok {
					if p > uint64(total) {
						t.Errorf("implausible priority %d for task %d", p, v)
					}
					atomicCounts[v].Add(1)
					pending.Dec()
					b.Reset()
					continue
				}
				if next < perWorker {
					continue // still have our own tasks to publish
				}
				if pending.Load() == 0 {
					return
				}
				b.Wait()
			}
		}(wid)
	}
	wg.Wait()

	if got := pending.Load(); got != 0 {
		t.Fatalf("pending = %d after all workers exited", got)
	}
	for i := range atomicCounts {
		counts[i] = atomicCounts[i].Load()
	}
	return counts
}

// TestConformance drives every registered scheduler through the shared
// concurrent drain and asserts the four contract properties.
func TestConformance(t *testing.T) {
	workers := 4
	perWorker := 4000
	if testing.Short() {
		perWorker = 500
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			s := tc.Make(workers, 0)
			counts := drainConcurrently(t, s, workers, perWorker)

			lost, duplicated := 0, 0
			for _, c := range counts {
				switch {
				case c == 0:
					lost++
				case c > 1:
					duplicated++
				}
			}
			if lost > 0 {
				t.Errorf("%d of %d tasks lost", lost, len(counts))
			}
			if duplicated > 0 {
				t.Errorf("%d of %d tasks duplicated", duplicated, len(counts))
			}

			total := uint64(workers * perWorker)
			st := s.Stats()
			if st.Pushes != total {
				t.Errorf("Stats.Pushes = %d, want %d", st.Pushes, total)
			}
			if st.Pops != st.Pushes {
				t.Errorf("Stats.Pops = %d, want %d (== Pushes) after drain", st.Pops, st.Pushes)
			}
		})
	}
}

// TestConformanceSingleWorker repeats the contract check degenerately
// with one worker — the configuration where buffered schedulers most
// easily strand tasks in thread-local state.
func TestConformanceSingleWorker(t *testing.T) {
	perWorker := 2000
	if testing.Short() {
		perWorker = 300
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			s := tc.Make(1, 0)
			counts := drainConcurrently(t, s, 1, perWorker)
			for v, c := range counts {
				if c != 1 {
					t.Fatalf("task %d popped %d times", v, c)
				}
			}
			st := s.Stats()
			if st.Pops != st.Pushes || st.Pushes != uint64(perWorker) {
				t.Fatalf("stats after drain: %+v", st)
			}
		})
	}
}

// TestConformancePendingSpuriousEmpty checks the relaxation contract's
// other direction: a failed Pop with Pending nonzero must not be treated
// as termination, and retrying must eventually surface the task. One
// worker holds a task in thread-local state while another spins on Pop.
func TestConformancePendingSpuriousEmpty(t *testing.T) {
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			s := tc.Make(2, 0)
			var pending sched.Pending

			// Worker 0 pushes one task; depending on the scheduler it may
			// sit in worker 0's local buffer where worker 1 cannot see it.
			pending.Inc(1)
			w0 := s.Worker(0)
			w0.Push(42, 7)

			// Worker 1 may legitimately fail to find it (spurious
			// emptiness, if the task sits in worker 0's local state) or
			// may pop it (globally visible schedulers); either way
			// Pending stays nonzero until the task is processed.
			w1 := s.Worker(1)
			p, v, ok := w1.Pop()
			if pending.Load() == 0 {
				t.Fatal("pending must stay nonzero until the task is processed")
			}
			if !ok {
				// Worker 0 itself must always be able to recover its own
				// task — buffered schedulers flush on demand.
				p, v, ok = w0.Pop()
				if !ok {
					t.Fatal("owner could not pop its own pushed task")
				}
			}
			if p != 42 || v != 7 {
				t.Fatalf("popped (%d,%d), want (42,7)", p, v)
			}
			pending.Dec()
			if pending.Load() != 0 {
				t.Fatal("pending should be zero after processing")
			}
		})
	}
}
