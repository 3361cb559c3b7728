//go:build !race

// testing.AllocsPerRun under the race detector measures the
// instrumentation's allocations, not the scheduler's; CI runs these
// through a dedicated non-race step.

package obim

import (
	"testing"

	"repro/internal/xrand"
)

// allocsPerWalk counts the allocations of steps calls of step, after as
// many to warm up. AllocsPerRun truncates to whole allocations per run
// and one chunk serves up to 64 steps, so the walk is counted as one run.
func allocsPerWalk(steps int, step func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			step()
		}
	})
}

// TestSteadyStateAllocFree asserts that chunks are recycled: a pop /
// push-back walk must not touch the allocator when a chunk fills, nor
// when a push crosses a bucket and publishes a short chunk. Both
// regimes are chosen so that zero is structural, not a matter of where
// the seed leaves the free lists (two handles on a walk that crosses
// buckets trade chunks unevenly, and a worker whose list runs dry while
// the other's overflows allocates — a drift, a few chunks per 10^4
// steps; the benchmark's run.alloc_bytes_per_task.obim reports it).
func TestSteadyStateAllocFree(t *testing.T) {
	const steps = 20000

	// One bag, two handles taking turns: every chunk fills, is drained
	// by whichever handle reaches it, and stays with that handle — each
	// publishes exactly one chunk per chunk it drains.
	for name, cfg := range map[string]Config{
		"fill": {Workers: 2, Delta: 32},
	} {
		t.Run(name, func(t *testing.T) {
			s := New[int](cfg)
			rng := xrand.New(42)
			for i := 0; i < 4096; i++ {
				s.workers[i&1].Push(uint64(rng.Intn(1<<20)), i)
			}
			turn := 0
			step := func() {
				w := &s.workers[turn&1]
				turn++
				p, v, ok := w.Pop()
				if !ok {
					t.Fatal("Pop failed on a prefilled scheduler")
				}
				w.Push(p+uint64(rng.Intn(64)), v)
			}
			if allocs := allocsPerWalk(steps, step); allocs != 0 {
				t.Fatalf("pop+push allocates %.0f times in %d steps, want 0", allocs, steps)
			}
		})
	}

	// Bucket crossings: 1024-wide buckets on a ring of four (priorities
	// wrap, so no bag is ever created after the prefill), a task set
	// that clusters within 64 and so alternates between two buckets
	// every time it passes a boundary. The worker keeps one open chunk
	// per bucket, so the walk needs at most one per bucket of the ring
	// and the pop chunk; the warm-up walk makes them all.
	t.Run("cross", func(t *testing.T) {
		const (
			tasks = 48 // fewer than freeChunks: the free list never overflows
			ring  = 4 << 10
		)
		s := New[int](Config{Workers: 1})
		w := &s.workers[0]
		for i := 0; i <= tasks; i++ {
			w.Push(uint64(i&1)<<10, i)
		}
		w.Pop()
		rng := xrand.New(42)
		crossings := 0
		step := func() {
			p, v, ok := w.Pop()
			if !ok {
				t.Fatal("Pop failed on a prefilled scheduler")
			}
			q := (p + uint64(rng.Intn(64))) % ring
			if q>>10 != p>>10 {
				crossings++
			}
			w.Push(q, v)
		}
		if allocs := allocsPerWalk(steps, step); allocs != 0 {
			t.Fatalf("pop+push allocates %.0f times in %d steps, want 0", allocs, steps)
		}
		if crossings < steps/100 {
			t.Fatalf("only %d pushes crossed a bucket; the walk does not test what it says", crossings)
		}
	})
}

// TestSteadyStateOneChunkPerBucket is the timing-free gate for small Δ:
// each worker pushes rounds tasks to each of buckets buckets, changing
// bucket on every push. Once a (worker, bucket) has its open chunk, the
// pushes that follow must allocate nothing, so the walk is counted
// against one that pushes a single task per (worker, bucket) and pays
// for every chunk, mirror entry and bag. A worker with one open chunk
// in all would publish a chunk on every bucket change: one per task.
func TestSteadyStateOneChunkPerBucket(t *testing.T) {
	const (
		workers = 2
		buckets = 32
		rounds  = 48 // fewer than ChunkSize: no chunk fills
	)
	var s *Sched[int]
	walk := func(rounds int) func() {
		return func() {
			s = New[int](Config{Workers: workers, Delta: 1})
			for r := 0; r < rounds; r++ {
				for i := range s.workers {
					for b := buckets - 1; b >= 0; b-- {
						s.workers[i].Push(uint64(b)<<1|uint64(r&1), r)
					}
				}
			}
		}
	}
	first := testing.AllocsPerRun(1, walk(1))
	all := testing.AllocsPerRun(1, walk(rounds))
	if all > first {
		t.Fatalf("%d rounds over %d buckets allocate %.0f times, one round %.0f: the %d rounds after the first allocate %.0f",
			rounds, buckets, all, first, rounds-1, all-first)
	}
	for i := range s.workers {
		if n := len(s.workers[i].open); n != buckets {
			t.Fatalf("worker %d holds %d open chunks, want one per bucket (%d)", i, n, buckets)
		}
	}
}
