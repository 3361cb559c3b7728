package sched_test

// Count-conservation stress for the whole zoo, added with the lock-free
// tier: a concurrent mixed scalar/batch workload (Push, Pop, PushN,
// PopN interleaved per worker) followed by a Pending-driven drain must
// end with every pushed task popped exactly once —
// pushed == popped + remaining, and remaining == 0 after the drain.
// The scalar conformance suite already checks lost/duplicated tasks for
// scalar traffic; this suite mixes the batch fast paths into the same
// run (a batch reservation that leaks or double-publishes slots is
// invisible to scalar-only traffic) and adds an oversubscribed variant
// (more runnable threads than GOMAXPROCS) so threads get preempted
// inside publication windows — the progress-sensitive interleavings a
// spinlock scheduler never exhibits.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// conserveMixed runs the mixed workload over one scheduler and checks
// conservation. Each worker publishes perWorker tasks (alternating
// scalar pushes and PushN batches), pops opportunistically along the
// way (alternating Pop and PopN), then drains via Pending.
func conserveMixed(t *testing.T, s sched.Scheduler[uint32], workers, perWorker int) {
	t.Helper()
	total := workers * perWorker
	seen := make([]atomic.Int32, total)
	var pending sched.Pending
	pending.Inc(int64(total))
	var popped atomic.Int64

	record := func(t_ *testing.T, v uint32) {
		if int(v) >= total {
			t_.Errorf("implausible task id %d", v)
			return
		}
		if seen[v].Add(1) != 1 {
			t_.Errorf("task %d popped more than once", v)
		}
		popped.Add(1)
		pending.Dec()
	}

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			next := 0
			step := 0
			dst := make([]sched.Task[uint32], 7)
			ps := make([]uint64, 0, 5)
			vs := make([]uint32, 0, 5)
			var b sched.Backoff
			for {
				if next < perWorker {
					if step%2 == 0 {
						v := uint32(wid*perWorker + next)
						w.Push(uint64(v%509), v)
						next++
					} else {
						n := min(5, perWorker-next)
						ps, vs = ps[:0], vs[:0]
						for j := 0; j < n; j++ {
							v := uint32(wid*perWorker + next)
							ps = append(ps, uint64(v%509))
							vs = append(vs, v)
							next++
						}
						w.PushN(ps, vs)
					}
				}
				step++
				var got bool
				if step%2 == 0 {
					if n := w.PopN(dst); n > 0 {
						for _, it := range dst[:n] {
							record(t, it.V)
						}
						got = true
					}
				} else if _, v, ok := w.Pop(); ok {
					record(t, v)
					got = true
				}
				if got {
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

	// remaining == 0 by a zero Pending count; conservation is then
	// pushed == popped exactly.
	if got := popped.Load(); got != int64(total) {
		t.Fatalf("conservation: pushed %d, popped %d", total, got)
	}
	for v := range seen {
		if seen[v].Load() != 1 {
			t.Fatalf("task %d popped %d times", v, seen[v].Load())
		}
	}
	st := s.Stats()
	if st.Pushes != uint64(total) || st.Pops != uint64(total) {
		t.Fatalf("stats conservation: pushes=%d pops=%d, want %d each", st.Pushes, st.Pops, total)
	}
}

// TestConservationMixedBatch runs the mixed scalar+batch conservation
// workload over every zoo configuration.
func TestConservationMixedBatch(t *testing.T) {
	workers := 4
	perWorker := 3000
	if testing.Short() {
		perWorker = 400
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			conserveMixed(t, tc.Make(workers, 0), workers, perWorker)
		})
	}
}

// conserveHold runs the decremental "hold" pattern over one scheduler
// and checks conservation by totals: every worker seeds perWorker
// tasks, then repeatedly pops a minimum and re-inserts it just above
// the popped priority — the below-head re-insert every SSSP/A*-style
// relaxation generates, and the pattern CBPQ's combining path exists
// for. Re-pushed tasks are popped again, so conservation here is
// total pushes == total pops after a Pending-driven drain (the per-task
// exactly-once check lives in conserveMixed). A PopN/PushN round is
// mixed in so the batch paths see the same pattern.
func conserveHold(t *testing.T, s sched.Scheduler[uint32], workers, perWorker, rounds int) {
	t.Helper()
	var pushed, popped atomic.Int64
	var pending sched.Pending

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < perWorker; i++ {
				pending.Inc(1)
				pushed.Add(1)
				w.Push(uint64(1<<20+wid*perWorker+i), uint32(wid*perWorker+i))
			}
			dst := make([]sched.Task[uint32], 4)
			ps := make([]uint64, 0, 4)
			vs := make([]uint32, 0, 4)
			var b sched.Backoff
			for i := 0; i < rounds; i++ {
				if i%8 == 7 {
					n := w.PopN(dst)
					if n == 0 {
						b.Wait()
						continue
					}
					popped.Add(int64(n))
					for j := 0; j < n; j++ {
						pending.Dec()
					}
					ps, vs = ps[:0], vs[:0]
					for _, it := range dst[:n] {
						ps = append(ps, it.P+uint64(it.V%64))
						vs = append(vs, it.V)
					}
					pending.Inc(int64(n))
					pushed.Add(int64(n))
					w.PushN(ps, vs)
					b.Reset()
					continue
				}
				p, v, ok := w.Pop()
				if !ok {
					b.Wait()
					continue
				}
				popped.Add(1)
				pending.Dec()
				pending.Inc(1)
				pushed.Add(1)
				w.Push(p+uint64(v%64), v)
				b.Reset()
			}
			// Drain: a failed Pop is not termination for relaxed
			// schedulers, so spin on Pending like the algorithms do.
			for {
				if _, _, ok := w.Pop(); ok {
					popped.Add(1)
					pending.Dec()
					b.Reset()
					continue
				}
				if pending.Load() == 0 {
					return
				}
				b.Wait()
			}
		}(wid)
	}
	wg.Wait()

	if pushed.Load() != popped.Load() {
		t.Fatalf("hold conservation: pushed %d, popped %d", pushed.Load(), popped.Load())
	}
	st := s.Stats()
	if st.Pushes != uint64(pushed.Load()) || st.Pops != uint64(popped.Load()) {
		t.Fatalf("stats conservation: pushes=%d pops=%d, want %d/%d",
			st.Pushes, st.Pops, pushed.Load(), popped.Load())
	}
}

// TestConservationHold runs the hold pattern over every zoo
// configuration at tier-1 sizes; the stress build soaks it (see
// stress_test.go).
func TestConservationHold(t *testing.T) {
	workers := 4
	perWorker, rounds := 500, 2000
	if testing.Short() {
		perWorker, rounds = 100, 400
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			conserveHold(t, tc.Make(workers, 0), workers, perWorker, rounds)
		})
	}
}

// TestConservationOversubscribed reruns the mixed workload with more
// worker goroutines than GOMAXPROCS, so workers are preempted inside
// critical windows (between a slot reservation and its publication, or
// while holding a spinlock). Progress bugs of that shape never surface
// when every worker owns a core.
func TestConservationOversubscribed(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	workers := 8
	perWorker := 800
	if testing.Short() {
		perWorker = 200
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			conserveMixed(t, tc.Make(workers, 0), workers, perWorker)
		})
	}
}
