package cskiplist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pq"
	"repro/internal/xrand"
)

// liveLen counts the level-0 nodes that are linked and unclaimed. The
// list keeps no element count (a shared counter would be one more atomic
// add per insert and delete that only tests read), so the tests count at
// quiescence, when every claimed node has been unlinked.
func (s *SkipList[T]) liveLen() int {
	n := 0
	for curr := s.head.next[0].Load(); !curr.isTail; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			n++
		}
	}
	return n
}

func TestEmpty(t *testing.T) {
	s := New[int](1)
	if s.Top() != pq.InfPriority {
		t.Fatalf("Top on empty = %d", s.Top())
	}
	if _, _, ok := s.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty returned ok")
	}
	if s.liveLen() != 0 {
		t.Fatalf("Len = %d", s.liveLen())
	}
}

func TestSequentialSortedExtraction(t *testing.T) {
	s := New[int](2)
	rng := rand.New(rand.NewSource(3))
	const n = 3000
	want := make([]uint64, n)
	for i := 0; i < n; i++ {
		p := uint64(rng.Intn(400)) // force duplicates
		want[i] = p
		s.Insert(p, i)
	}
	if s.liveLen() != n {
		t.Fatalf("Len = %d, want %d", s.liveLen(), n)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < n; i++ {
		if top := s.Top(); top != want[i] {
			t.Fatalf("Top at %d = %d, want %d", i, top, want[i])
		}
		p, _, ok := s.DeleteMin()
		if !ok || p != want[i] {
			t.Fatalf("DeleteMin at %d = (%d,%v), want %d", i, p, ok, want[i])
		}
	}
	if s.Top() != pq.InfPriority || s.liveLen() != 0 {
		t.Fatal("list not empty after draining")
	}
}

func TestValuesPreserved(t *testing.T) {
	s := New[int](5)
	const n = 1000
	for i := 0; i < n; i++ {
		s.Insert(uint64(i%13), i)
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		_, v, ok := s.DeleteMin()
		if !ok || v < 0 || v >= n || seen[v] {
			t.Fatalf("value %d lost/duplicated (ok=%v)", v, ok)
		}
		seen[v] = true
	}
}

func TestDeleteMinBatch(t *testing.T) {
	s := New[int](7)
	for i := 10; i > 0; i-- {
		s.Insert(uint64(i), i)
	}
	got := s.DeleteMinBatch(4, nil)
	if len(got) != 4 {
		t.Fatalf("batch len = %d", len(got))
	}
	for i, it := range got {
		if it.P != uint64(i+1) {
			t.Errorf("batch[%d].P = %d, want %d", i, it.P, i+1)
		}
	}
	rest := s.DeleteMinBatch(100, nil)
	if len(rest) != 6 {
		t.Fatalf("drain batch len = %d, want 6", len(rest))
	}
}

func TestQuickMultisetSemantics(t *testing.T) {
	// Property: DeleteMin drains exactly the inserted multiset in sorted
	// order, for arbitrary inputs.
	f := func(ps []uint16) bool {
		s := New[int](99)
		want := make([]uint64, len(ps))
		for i, p := range ps {
			want[i] = uint64(p)
			s.Insert(uint64(p), i)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			p, _, ok := s.DeleteMin()
			if !ok || p != w {
				return false
			}
		}
		_, _, ok := s.DeleteMin()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInserts(t *testing.T) {
	s := New[int](13)
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w))
			for i := 0; i < per; i++ {
				s.Insert(uint64(rng.Intn(1000)), w*per+i)
			}
		}(w)
	}
	wg.Wait()
	if s.liveLen() != workers*per {
		t.Fatalf("Len = %d, want %d", s.liveLen(), workers*per)
	}
	// Drain and verify count + sortedness.
	prev := uint64(0)
	count := 0
	for {
		p, _, ok := s.DeleteMin()
		if !ok {
			break
		}
		if p < prev {
			t.Fatalf("out of order: %d after %d", p, prev)
		}
		prev = p
		count++
	}
	if count != workers*per {
		t.Fatalf("drained %d, want %d", count, workers*per)
	}
}

func TestConcurrentMixed(t *testing.T) {
	// Producers insert; consumers DeleteMin concurrently. Every value
	// must be extracted exactly once.
	s := New[int](17)
	const producers, consumers = 4, 4
	const per = 3000
	total := producers * per
	var wg sync.WaitGroup
	results := make(chan int, total)
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w + 100))
			for i := 0; i < per; i++ {
				s.Insert(uint64(rng.Intn(5000)), w*per+i)
			}
		}(w)
	}
	var consumed sync.WaitGroup
	var got sync.Map
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				_, v, ok := s.DeleteMin()
				if ok {
					if _, dup := got.LoadOrStore(v, true); dup {
						t.Errorf("value %d extracted twice", v)
						return
					}
					results <- v
					continue
				}
				select {
				case <-stop:
					// Final drain after producers are done.
					for {
						_, v, ok := s.DeleteMin()
						if !ok {
							return
						}
						if _, dup := got.LoadOrStore(v, true); dup {
							t.Errorf("value %d extracted twice", v)
							return
						}
						results <- v
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	consumed.Wait()
	close(results)
	count := 0
	for range results {
		count++
	}
	if count != total {
		t.Fatalf("extracted %d values, want %d", count, total)
	}
}

func TestSprayBasic(t *testing.T) {
	s := New[int](19)
	const n = 2000
	for i := 0; i < n; i++ {
		s.Insert(uint64(i), i)
	}
	rng := xrand.New(1)
	params := DefaultSprayParams(8)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		_, v, ok := s.Spray(params, rng)
		if !ok {
			t.Fatalf("Spray reported empty with %d items left", n-i)
		}
		if seen[v] {
			t.Fatalf("value %d sprayed twice", v)
		}
		seen[v] = true
	}
	if _, _, ok := s.Spray(params, rng); ok {
		t.Fatal("Spray on empty returned ok")
	}
}

func TestSprayNearFront(t *testing.T) {
	// Spray must return elements whose rank is small relative to the
	// list size — that is its entire point. Insert 0..n-1, spray once,
	// and check the removed rank is within the spray window.
	const n = 100000
	s := New[int](23)
	for i := 0; i < n; i++ {
		s.Insert(uint64(i), i)
	}
	rng := xrand.New(7)
	params := DefaultSprayParams(8)
	maxSeen := 0
	for i := 0; i < 200; i++ {
		_, v, ok := s.Spray(params, rng)
		if !ok {
			t.Fatal("unexpected empty")
		}
		if v > maxSeen {
			maxSeen = v
		}
	}
	// Window: with height h and jump length h+1 per layer, the walk can
	// pass at most ~(h+1)·2^h... in practice ranks stay tiny vs n. Use a
	// generous bound that still proves near-front behaviour.
	if maxSeen > n/10 {
		t.Fatalf("spray returned rank %d out of %d — not near-front", maxSeen, n)
	}
}

func TestConcurrentSpray(t *testing.T) {
	s := New[int](29)
	const n = 8000
	for i := 0; i < n; i++ {
		s.Insert(uint64(i), i)
	}
	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make([]bool, n)
	count := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w + 500))
			params := DefaultSprayParams(workers)
			for {
				_, v, ok := s.Spray(params, rng)
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					mu.Unlock()
					t.Errorf("value %d sprayed twice", v)
					return
				}
				seen[v] = true
				count++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if count != n {
		t.Fatalf("sprayed %d values, want %d", count, n)
	}
}

func TestTopTracksMin(t *testing.T) {
	s := New[int](31)
	s.Insert(10, 0)
	s.Insert(5, 1)
	if s.Top() != 5 {
		t.Fatalf("Top = %d, want 5", s.Top())
	}
	s.DeleteMin()
	if s.Top() != 10 {
		t.Fatalf("Top = %d, want 10", s.Top())
	}
}

func BenchmarkInsertDeleteMin(b *testing.B) {
	s := New[int](1)
	for i := 0; i < 1024; i++ {
		s.Insert(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, v, _ := s.DeleteMin()
		s.Insert(p+64, v)
	}
}

func BenchmarkConcurrentDeleteMin(b *testing.B) {
	s := New[int](1)
	for i := 0; i < b.N+1024; i++ {
		s.Insert(uint64(i), i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.DeleteMin()
		}
	})
}

func BenchmarkConcurrentSpray(b *testing.B) {
	s := New[int](1)
	for i := 0; i < b.N+1024; i++ {
		s.Insert(uint64(i), i)
	}
	params := DefaultSprayParams(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xrand.New(42)
		for pb.Next() {
			s.Spray(params, rng)
		}
	})
}
