package coarse

import (
	"sync"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/sched"
)

func TestExactOrderSingleWorker(t *testing.T) {
	s := New[int](Config{Workers: 1})
	w := s.Worker(0)
	for i := 100; i >= 1; i-- {
		w.Push(uint64(i), i)
	}
	for i := 1; i <= 100; i++ {
		p, v, ok := w.Pop()
		if !ok || p != uint64(i) || v != i {
			t.Fatalf("Pop %d = (%d,%d,%v)", i, p, v, ok)
		}
	}
	if _, _, ok := w.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
}

func TestNoLostTasksConcurrent(t *testing.T) {
	s := New[int](Config{Workers: 4})
	const perWorker = 5000
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
				w.Push(uint64(v%991), v)
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
	if st := s.Stats(); st.Pops != uint64(total) {
		t.Fatalf("Pops = %d, want %d", st.Pops, total)
	}
}

func TestWorkerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Workers=0 did not panic")
		}
	}()
	New[int](Config{})
}

func BenchmarkThroughput_CoarseLock(b *testing.B) {
	benchutil.Throughput(b, New[int](Config{Workers: 4}), 1<<12)
}
