//go:build !race

// testing.AllocsPerRun under the race detector measures the
// instrumentation's allocations, not the scheduler's; CI runs these
// through a dedicated non-race step.

package mq

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/xrand"
)

// warmWalk grows every internal structure to steady-state size: push a
// working set, drain half, so the random-walk pairs below never grow a
// heap or buffer again.
func warmWalk(w sched.Worker[int], rng *xrand.Rand) {
	for i := 0; i < 4096; i++ {
		w.Push(uint64(rng.Intn(1<<20)), i)
	}
	for i := 0; i < 2048; i++ {
		w.Pop()
	}
}

// TestSteadyStateAllocFree asserts the zero-alloc steady state for the
// Multi-Queue family: after warm-up, pop→push pairs must not touch the
// allocator at all — the cache-efficiency story of the paper (§4)
// assumes the hot path is heap-operation bound, and any per-op
// allocation would also defeat the padded layout by churning lines.
func TestSteadyStateAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{
		"classic":     Classic(1, 4),
		"reld":        RELD(1),
		"batch_batch": {Workers: 1, C: 4, Insert: InsertBatch, Delete: DeleteBatch},
		"temporal":    {Workers: 1, C: 4, PInsertChange: 1.0 / 16, PDeleteChange: 1.0 / 16},
		"peek":        {Workers: 1, C: 4, PeekTops: true},
	} {
		t.Run(name, func(t *testing.T) { checkPairAllocFree(t, cfg) })
	}
	// The engineered MultiQueue: Williams et al.'s defaults, unit
	// buffers, and a wide sticky configuration.
	t.Run("engineered", func(t *testing.T) {
		for name, cfg := range map[string]Config{
			"default":    Engineered(1),
			"no_buffers": sticky(1, 0, 1, 1, 1),
			"big":        sticky(1, 4, 64, 64, 64),
		} {
			t.Run(name, func(t *testing.T) { checkPairAllocFree(t, cfg) })
		}
	})
}

// checkPairAllocFree fails t if a warm pop→push pair under cfg allocates.
func checkPairAllocFree(t *testing.T, cfg Config) {
	s := New[int](cfg)
	w := s.Worker(0)
	rng := xrand.New(42)
	warmWalk(w, rng)
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
}

// TestSteadyStateBatchAllocFree asserts the zero-alloc steady state of
// the Multi-Queue bulk operations across every delete policy: a
// PopN→PushN pair must not touch the allocator once the worker-owned
// zip scratch has grown (reused in place, vacated slots zeroed).
func TestSteadyStateBatchAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{
		"classic":     Classic(1, 4),
		"reld":        RELD(1),
		"batch_batch": {Workers: 1, C: 4, Insert: InsertBatch, Delete: DeleteBatch},
		"peek":        {Workers: 1, C: 4, PeekTops: true},
	} {
		t.Run(name, func(t *testing.T) { checkBatchPairAllocFree(t, cfg) })
	}
	t.Run("engineered", func(t *testing.T) {
		for name, cfg := range map[string]Config{
			"default": Engineered(1),
			"big":     sticky(1, 4, 64, 64, 64),
		} {
			t.Run(name, func(t *testing.T) { checkBatchPairAllocFree(t, cfg) })
		}
	})
}

// checkBatchPairAllocFree fails t if a warm PopN→PushN pair under cfg
// allocates.
func checkBatchPairAllocFree(t *testing.T, cfg Config) {
	s := New[int](cfg)
	w := s.Worker(0)
	rng := xrand.New(42)
	warmWalk(w, rng)
	const batch = 16
	dst := make([]sched.Task[int], batch)
	ps := make([]uint64, 0, batch)
	vs := make([]int, 0, batch)
	runBatchPair(w, dst, &ps, &vs, rng) // warm the zip scratch
	allocs := testing.AllocsPerRun(2000, func() {
		runBatchPair(w, dst, &ps, &vs, rng)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch pop+push allocates %.3f allocs/op, want 0", allocs)
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
