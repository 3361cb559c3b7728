package spray

import (
	"sync"
	"testing"

	"repro/internal/sched"
)

func TestWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Workers=0 did not panic")
		}
	}()
	New[int](Config{})
}

func TestSingleThreadedDrain(t *testing.T) {
	s := New[int](Config{Workers: 1})
	w := s.Worker(0)
	const n = 2000
	for i := 0; i < n; i++ {
		w.Push(uint64(i%301), i)
	}
	seen := make([]bool, n)
	count := 0
	for {
		_, v, ok := w.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
		count++
	}
	if count != n {
		t.Fatalf("popped %d, want %d", count, n)
	}
	st := s.Stats()
	if st.Pops != n || st.Pushes != n {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNearMinimalReturns(t *testing.T) {
	// A spray must return elements close to the front. With one worker
	// and n elements, every pop should have small rank.
	s := New[int](Config{Workers: 1, Seed: 3})
	w := s.Worker(0)
	const n = 50000
	for i := 0; i < n; i++ {
		w.Push(uint64(i), i)
	}
	worst := 0
	for i := 0; i < 100; i++ {
		_, v, ok := w.Pop()
		if !ok {
			t.Fatal("unexpected empty")
		}
		if v > worst {
			worst = v
		}
	}
	if worst > n/10 {
		t.Fatalf("spray rank %d of %d is not near-minimal", worst, n)
	}
}

func TestNoLostTasksConcurrent(t *testing.T) {
	s := New[int](Config{Workers: 4})
	const perWorker = 3000
	total := 4 * perWorker
	var pending sched.Pending
	pending.Inc(int64(total))
	seen := make([]int32, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for wid := 0; wid < 4; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < perWorker; i++ {
				v := wid*perWorker + i
				w.Push(uint64(v%997), v)
			}
			var b sched.Backoff
			for pending.Load() != 0 {
				_, v, ok := w.Pop()
				if !ok {
					b.Wait()
					continue
				}
				b.Reset()
				mu.Lock()
				seen[v]++
				mu.Unlock()
				pending.Dec()
			}
		}(wid)
	}
	wg.Wait()
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d seen %d times", v, c)
		}
	}
}
