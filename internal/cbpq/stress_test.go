//go:build stress

// Elevated-iteration soak tests for the lock-free interleavings, run
// by CI's dedicated stress job (`go test -race -tags stress`) so the
// main test job stays fast. See .github/workflows/ci.yml.

package cbpq

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// stressRun hammers one queue, first prefilled with prefill tasks, with
// a mixed scalar/batch workload and verifies conservation (pushed ==
// popped + remaining) plus exact ascending order on the final drain.
// The mix pops a little more than it pushes, so a prefill keeps the
// queue resident-heavy throughout; with one, the run also asserts that
// the spine still held at least 3 segments when the workers stopped, so
// splits and rebuilds raced across segment boundaries the whole time.
func stressRun(t *testing.T, workers, perWorker, chunkCap, prefill int) {
	t.Helper()
	q := New[uint64](Config{Workers: workers, ChunkCap: chunkCap})
	var pushed, popped atomic.Uint64
	seed := q.Worker(0)
	rng := rand.New(rand.NewSource(int64(prefill)))
	for i := 0; i < prefill; i++ {
		seed.Push(uint64(rng.Intn(1<<14)), uint64(i))
	}
	pushed.Add(uint64(prefill))
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := q.Worker(wi)
			rng := rand.New(rand.NewSource(int64(wi)*2654435761 + 1))
			dst := make([]sched.Task[uint64], 17)
			ps := make([]uint64, 0, 13)
			vs := make([]uint64, 0, 13)
			for i := 0; i < perWorker; i++ {
				switch rng.Intn(4) {
				case 0:
					w.Push(uint64(rng.Intn(1<<14)), uint64(i))
					pushed.Add(1)
				case 1:
					n := 1 + rng.Intn(13)
					ps, vs = ps[:0], vs[:0]
					for j := 0; j < n; j++ {
						ps = append(ps, uint64(rng.Intn(1<<14)))
						vs = append(vs, uint64(i*100+j))
					}
					w.PushN(ps, vs)
					pushed.Add(uint64(n))
				case 2:
					if _, _, ok := w.Pop(); ok {
						popped.Add(1)
					}
				default:
					popped.Add(uint64(w.PopN(dst[:1+rng.Intn(17)])))
				}
			}
		}(wi)
	}
	wg.Wait()
	if segs := len(q.root.Load().segs); prefill > 0 && segs < 3 {
		t.Fatalf("resident-heavy run ended with %d segments, want >= 3 (prefill %d, ChunkCap %d)", segs, prefill, chunkCap)
	}

	w := q.Worker(0)
	prev := uint64(0)
	remaining := uint64(0)
	for {
		p, _, ok := w.Pop()
		if !ok {
			break
		}
		if p < prev {
			t.Fatalf("final drain out of order: %d after %d", p, prev)
		}
		prev = p
		remaining++
	}
	if pushed.Load() != popped.Load()+remaining {
		t.Fatalf("conservation: pushed=%d popped=%d remaining=%d",
			pushed.Load(), popped.Load(), remaining)
	}
	st := q.Stats()
	if st.Pushes != pushed.Load() || st.Pops != popped.Load()+remaining {
		t.Fatalf("stats drifted: %+v vs pushed=%d popped=%d", st, pushed.Load(), popped.Load()+remaining)
	}
}

// TestStressMixed soaks the default and a split-heavy tiny chunk
// capacity at full parallelism, the latter once from empty and once
// resident-heavy: 2^17 prefilled tasks in ChunkCap 8 chunks span
// hundreds of segments, which no run from empty is guaranteed to reach.
func TestStressMixed(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, tc := range []struct{ cap_, perWorker, prefill int }{
		{0, 60000, 0},
		{8, 60000, 0},
		{8, 20000, 1 << 17},
	} {
		stressRun(t, workers, tc.perWorker, tc.cap_, tc.prefill)
	}
}

// TestStressOversubscribed runs more workers than GOMAXPROCS so
// preempted publication windows and helper races actually happen —
// progress bugs the spinlock schedulers never hit.
func TestStressOversubscribed(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	stressRun(t, 3*prev+2, 20000, 8, 0)
}

// TestStressExactness soaks the timestamped displacement checker
// (exactnessRun, cbpq_test.go): concurrent pops must observe exact
// priority order while below-head inserts force freeze/rebuild races
// against partially drained heads. This is the concurrent counterpart
// of the single-threaded rank regression — it would catch a freeze
// protocol that lets a pop claim a slot while a smaller unclaimed slot
// is frozen and republished.
func TestStressExactness(t *testing.T) {
	poppers := runtime.GOMAXPROCS(0)
	if poppers < 4 {
		poppers = 4
	}
	for round := 0; round < 6; round++ {
		for _, cap_ := range []int{8, 64} {
			exactnessRun(t, poppers, 30000, 2, 15000, cap_, int64(round*100+cap_))
		}
	}
}

// TestStressElimination soaks the exchange layer specifically: every
// worker runs the decremental hold pattern (pop the minimum, reinsert
// just above it — always below-head), so pushes and pops collide in the
// exchange array constantly, with slot recycling, withdraw-on-freeze,
// reservation flaps, and combining rebuilds all racing. Conservation is
// checked at the end, and the run asserts the elimination path actually
// fired — a protocol change that silently routed everything through buf
// would soak nothing.
func TestStressElimination(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, cap_ := range []int{8, 0} {
		q := New[uint64](Config{Workers: workers, ChunkCap: cap_})
		var pushed, popped atomic.Uint64
		seed := q.Worker(0)
		for i := 0; i < 4096; i++ {
			seed.Push(uint64(100000+i*7), uint64(i))
			pushed.Add(1)
		}
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := q.Worker(wi)
				rng := rand.New(rand.NewSource(int64(wi)*40503 + 3))
				for i := 0; i < 40000; i++ {
					p, v, ok := w.Pop()
					if !ok {
						continue
					}
					popped.Add(1)
					// Re-insert just above the popped minimum: below the
					// (risen) head minimum with high probability.
					w.Push(p+uint64(rng.Intn(64)), v)
					pushed.Add(1)
				}
			}(wi)
		}
		wg.Wait()

		w := q.Worker(0)
		remaining := uint64(0)
		prev := uint64(0)
		for {
			p, _, ok := w.Pop()
			if !ok {
				break
			}
			if p < prev {
				t.Fatalf("final drain out of order: %d after %d", p, prev)
			}
			prev = p
			remaining++
		}
		if pushed.Load() != popped.Load()+remaining {
			t.Fatalf("conservation: pushed=%d popped=%d remaining=%d",
				pushed.Load(), popped.Load(), remaining)
		}
		if st := q.Stats(); st.Eliminations == 0 {
			t.Fatalf("hold soak recorded zero eliminations (stats: %+v)", st)
		}
	}
}
