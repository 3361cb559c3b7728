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
		"fill":      {Workers: 2, Delta: 32},
		"fill_numa": {Workers: 2, Delta: 32, NUMANodes: 2},
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
	// every time it passes a boundary. The prefill alternates buckets,
	// which gives each of the tasks+1 tasks its own chunk; one task is
	// taken out, and the rest can never occupy more chunks than that.
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
