//go:build !race

// testing.AllocsPerRun under the race detector measures the
// instrumentation's allocations, not the scheduler's; CI runs these
// through a dedicated non-race step.

package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/xrand"
)

// TestSteadyStateAllocFree asserts the zero-alloc steady state of the
// SMQ: local pushes and pops on a warm heap must never allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": {Workers: 1},
	} {
		t.Run(name, func(t *testing.T) {
			s := NewStealingMQ[int](cfg)
			w := s.Worker(0)
			rng := xrand.New(42)
			for i := 0; i < 4096; i++ {
				w.Push(uint64(rng.Intn(1<<20)), i)
			}
			for i := 0; i < 2048; i++ {
				w.Pop()
			}
			allocs := testing.AllocsPerRun(2000, func() {
				p, v, ok := w.Pop()
				if !ok {
					w.Push(uint64(rng.Intn(1<<20)), 0)
					return
				}
				w.Push(p+uint64(rng.Intn(64)), v)
			})
			if allocs != 0 {
				t.Fatalf("steady-state pop+push allocates %.3f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateStealAllocFree asserts that the steal buffer costs no
// allocation either: one goroutine drives both handles of a two-worker
// SMQ through pushes at worker 0, pops there (which take its published
// batch back and republish, scalar and batched) and pops at worker 1,
// whose queue is empty, so every one of them is served by a steal or by
// the surplus of one.
func TestSteadyStateStealAllocFree(t *testing.T) {
	s := NewStealingMQ[int](Config{Workers: 2})
	w0, w1 := s.Worker(0), s.Worker(1)
	rng := xrand.New(42)
	dst := make([]sched.Task[int], 8)
	cycle := func() {
		for i := 0; i < 31; i++ { // as many as the cycle pops
			w0.Push(uint64(rng.Intn(1<<20)), i)
		}
		w0.Pop()
		w0.PopN(dst)
		// 22 pops at worker 1: more than one default steal of 16.
		for i := 0; i < 6; i++ {
			w1.Pop()
		}
		w1.PopN(dst)
		w1.PopN(dst)
	}
	for i := 0; i < 64; i++ { // grow the heap, the runs and the buffers
		cycle()
	}
	before := s.Stats()
	allocs := testing.AllocsPerRun(2000, cycle)
	after := s.Stats()
	if allocs != 0 {
		t.Fatalf("push/steal/owner-reclaim cycle allocates %.3f allocs/op, want 0", allocs)
	}
	if steals := after.Steals - before.Steals; steals < 2000 {
		t.Fatalf("%d steals in 2000 cycles: the cycle does not exercise the buffer", steals)
	}
}

// TestSteadyStateBatchAllocFree asserts the zero-alloc steady state of
// the SMQ bulk operations: PopN into a caller-owned slice plus a PushN
// of the same batch must never allocate once the worker's zip scratch
// has grown (the scratch is owned by the handle and reused in place;
// vacated slots are zeroed, per the payload-retention discipline).
func TestSteadyStateBatchAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": {Workers: 1},
	} {
		t.Run(name, func(t *testing.T) {
			s := NewStealingMQ[int](cfg)
			w := s.Worker(0)
			rng := xrand.New(42)
			for i := 0; i < 4096; i++ {
				w.Push(uint64(rng.Intn(1<<20)), i)
			}
			const batch = 16
			dst := make([]sched.Task[int], batch)
			ps := make([]uint64, 0, batch)
			vs := make([]int, 0, batch)
			// Warm the batch scratch buffers once.
			runBatchPair(w, dst, &ps, &vs, rng)
			allocs := testing.AllocsPerRun(2000, func() {
				runBatchPair(w, dst, &ps, &vs, rng)
			})
			if allocs != 0 {
				t.Fatalf("steady-state batch pop+push allocates %.3f allocs/op, want 0", allocs)
			}
		})
	}
}

// runBatchPair is one steady-state PopN→PushN round: re-insert every
// popped task with a fresh priority, reseeding on an empty batch.
func runBatchPair(w sched.Worker[int], dst []sched.Task[int], ps *[]uint64, vs *[]int, rng *xrand.Rand) {
	k := w.PopN(dst)
	*ps, *vs = (*ps)[:0], (*vs)[:0]
	if k == 0 {
		*ps = append(*ps, uint64(rng.Intn(1<<20)))
		*vs = append(*vs, 0)
	} else {
		for i := 0; i < k; i++ {
			*ps = append(*ps, uint64(rng.Intn(1<<20)))
			*vs = append(*vs, dst[i].V)
		}
	}
	w.PushN(*ps, *vs)
}
