package sched_test

// Batch-operation conformance: PushN/PopN must satisfy the same
// no-loss / no-duplication / exact-accounting contract as the scalar
// operations for every scheduler in the zoo, across the edge cases the
// fast paths are most likely to get wrong — empty batches, batches of
// one, batches larger than any internal buffer or relaxation bound,
// and scalar/batch interleavings.

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// drainBatchAll drains s through worker w's PopN with the given dst
// capacity until a PopN comes up empty twice, tallying pop counts.
func drainBatchAll(t *testing.T, w sched.Worker[uint32], dstCap int, counts []int32) {
	t.Helper()
	dst := make([]sched.Task[uint32], dstCap)
	empties := 0
	for empties < 2 {
		n := w.PopN(dst)
		if n == 0 {
			empties++
			continue
		}
		empties = 0
		for i := 0; i < n; i++ {
			counts[dst[i].V]++
		}
	}
}

// TestBatchConformanceEdgeCases runs every zoo constructor through the
// single-worker batch edge cases.
func TestBatchConformanceEdgeCases(t *testing.T) {
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			s := tc.Build(2, 0)
			w := s.Worker(0)

			// Empty batch: PushN of nothing and PopN into an empty dst
			// are no-ops that must not disturb the accounting.
			w.PushN(nil, nil)
			w.PushN([]uint64{}, []uint32{})
			if n := w.PopN(nil); n != 0 {
				t.Fatalf("PopN(nil) = %d, want 0", n)
			}
			if n := w.PopN([]sched.Task[uint32]{}); n != 0 {
				t.Fatalf("PopN(empty) = %d, want 0", n)
			}
			if st := s.Stats(); st.Pushes != 0 || st.Pops != 0 {
				t.Fatalf("empty batches changed stats: %+v", st)
			}

			// Batch of one.
			w.PushN([]uint64{5}, []uint32{0})
			one := make([]sched.Task[uint32], 1)
			if n := w.PopN(one); n != 1 || one[0].P != 5 || one[0].V != 0 {
				t.Fatalf("PopN after PushN of one = %d (%+v)", n, one[0])
			}

			// Batch far larger than any internal buffer (insert/delete
			// buffers <= 64, steal buffers <= 64, k-LSM relaxation
			// bounds 4..4096 at the conformance configurations; 5000
			// overflows the k4 case hundreds of times over).
			const big = 5000
			ps := make([]uint64, big)
			vs := make([]uint32, big)
			for i := range ps {
				ps[i] = uint64(i % 509)
				vs[i] = uint32(i + 1)
			}
			w.PushN(ps, vs)
			counts := make([]int32, big+1)
			counts[0] = 1                   // the batch-of-one task, already popped
			drainBatchAll(t, w, 96, counts) // dst larger than the schedulers' buffers too
			for v := 1; v <= big; v++ {
				if counts[v] != 1 {
					t.Fatalf("task %d popped %d times after big batch", v, counts[v])
				}
			}
			st := s.Stats()
			if st.Pushes != big+1 || st.Pops != big+1 {
				t.Fatalf("stats after big-batch drain: %+v", st)
			}
		})
	}
}

// TestBatchConformanceInterleaved mixes scalar and batch operations on
// one worker: buffered leftovers from a batched pop must be served
// coherently by later scalar pops and vice versa.
func TestBatchConformanceInterleaved(t *testing.T) {
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			s := tc.Build(1, 0)
			w := s.Worker(0)
			const total = 3000
			counts := make([]int32, total)
			next := 0
			pushScalar := true
			for next < total {
				if pushScalar {
					w.Push(uint64(next%257), uint32(next))
					next++
				} else {
					n := min(7, total-next)
					ps := make([]uint64, n)
					vs := make([]uint32, n)
					for i := 0; i < n; i++ {
						ps[i] = uint64((next + i) % 257)
						vs[i] = uint32(next + i)
					}
					w.PushN(ps, vs)
					next += n
				}
				pushScalar = !pushScalar
				// Interleave a scalar pop and a small batched pop.
				if _, v, ok := w.Pop(); ok {
					counts[v]++
				}
				dst := make([]sched.Task[uint32], 3)
				for i, n := 0, w.PopN(dst); i < n; i++ {
					counts[dst[i].V]++
				}
			}
			drainBatchAll(t, w, 5, counts)
			for v, c := range counts {
				if c != 1 {
					t.Fatalf("task %d popped %d times under interleaving", v, c)
				}
			}
			st := s.Stats()
			if st.Pushes != total || st.Pops != total {
				t.Fatalf("stats after interleaved drain: %+v", st)
			}
		})
	}
}

// TestBatchConformanceConcurrent is the batched counterpart of the
// scalar concurrent drain: every worker pushes its tasks in batches of
// varying size while popping batches concurrently, until Pending
// reports global emptiness. Run with -race this exercises the batched
// lock and publication paths.
func TestBatchConformanceConcurrent(t *testing.T) {
	workers := 4
	perWorker := 4000
	if testing.Short() {
		perWorker = 500
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			s := tc.Build(workers, 0)
			total := workers * perWorker
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
					batch := 1 // cycles 1..16: covers sub- and super-buffer sizes
					ps := make([]uint64, 0, 16)
					vs := make([]uint32, 0, 16)
					dst := make([]sched.Task[uint32], 24)
					var b sched.Backoff
					for {
						if next < perWorker {
							n := min(batch, perWorker-next)
							ps, vs = ps[:0], vs[:0]
							for i := 0; i < n; i++ {
								v := uint32(wid*perWorker + next + i)
								ps = append(ps, uint64(v%509))
								vs = append(vs, v)
							}
							w.PushN(ps, vs)
							next += n
							batch = batch%16 + 1
						}
						k := w.PopN(dst)
						if k > 0 {
							for i := 0; i < k; i++ {
								atomicCounts[dst[i].V].Add(1)
							}
							pending.Inc(-int64(k))
							b.Reset()
							continue
						}
						if next < perWorker {
							continue
						}
						if pending.Done() {
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
			lost, duplicated := 0, 0
			for i := range atomicCounts {
				switch c := atomicCounts[i].Load(); {
				case c == 0:
					lost++
				case c > 1:
					duplicated++
				}
			}
			if lost > 0 || duplicated > 0 {
				t.Errorf("%d lost, %d duplicated of %d tasks", lost, duplicated, total)
			}
			st := s.Stats()
			if st.Pushes != uint64(total) || st.Pops != st.Pushes {
				t.Errorf("stats after batched drain: %+v", st)
			}
		})
	}
}

// TestPopIsPopNOfOne pins the sched.Worker contract that Pop returns
// what PopN with a one-slot destination would: two schedulers built from
// the same seed and seeded identically are drained round-robin over all
// handles by one goroutine, one through Pop and one through PopN(dst[:1]),
// and must yield the same task sequence and the same Stats. For the
// schedulers whose Pop is a wrapper this guards the wrapper; for those
// that keep a scalar fast path (the SMQ family) it pins that the fast
// path is still the batch path at k = 1.
func TestPopIsPopNOfOne(t *testing.T) {
	const workers, total = 3, 3000
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			drain := func(pop func(w sched.Worker[uint32]) (sched.Task[uint32], bool)) ([]sched.Task[uint32], sched.Stats) {
				s := tc.Build(workers, 7)
				hs := make([]sched.Worker[uint32], workers)
				for i := range hs {
					hs[i] = s.Worker(i)
				}
				// Seed through every handle, scalar and batched pushes mixed.
				for next := 0; next < total; {
					w := hs[next%workers]
					if next%2 == 0 {
						w.Push(uint64(next*7919%509), uint32(next))
						next++
						continue
					}
					n := min(5, total-next)
					ps, vs := make([]uint64, n), make([]uint32, n)
					for i := range ps {
						ps[i], vs[i] = uint64((next+i)*7919%509), uint32(next+i)
					}
					w.PushN(ps, vs)
					next += n
				}
				var seq []sched.Task[uint32]
				for failed := 0; failed < 2*workers; {
					for _, w := range hs {
						if task, ok := pop(w); ok {
							seq = append(seq, task)
							failed = 0
						} else {
							failed++
						}
					}
				}
				return seq, s.Stats()
			}
			scalar, scalarStats := drain(func(w sched.Worker[uint32]) (sched.Task[uint32], bool) {
				p, v, ok := w.Pop()
				return sched.Task[uint32]{P: p, V: v}, ok
			})
			dst := make([]sched.Task[uint32], 4)
			batched, batchedStats := drain(func(w sched.Worker[uint32]) (sched.Task[uint32], bool) {
				n := w.PopN(dst[:1])
				return dst[0], n == 1
			})
			if len(scalar) != total {
				t.Fatalf("Pop drained %d of %d tasks", len(scalar), total)
			}
			if !slices.Equal(scalar, batched) {
				i := 0
				for i < len(scalar) && i < len(batched) && scalar[i] == batched[i] {
					i++
				}
				t.Fatalf("Pop and PopN(dst[:1]) diverge at pop %d of %d/%d", i, len(scalar), len(batched))
			}
			if scalarStats != batchedStats {
				t.Fatalf("Stats differ:\n Pop  %+v\n PopN %+v", scalarStats, batchedStats)
			}
		})
	}
}
