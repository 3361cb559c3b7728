package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// makers enumerates every sequential queue implementation so each test
// exercises all of them identically.
func makers() map[string]func() Queue[int] {
	return map[string]func() Queue[int]{
		"dheap2":   func() Queue[int] { return NewDHeap[int](2) },
		"dheap4":   func() Queue[int] { return NewDHeap[int](4) },
		"dheap8":   func() Queue[int] { return NewDHeap[int](8) },
		"skiplist": func() Queue[int] { return NewSeqSkipList[int](1) },
	}
}

func TestEmptyQueue(t *testing.T) {
	for name, mk := range makers() {
		q := mk()
		if q.Len() != 0 {
			t.Errorf("%s: new queue Len = %d", name, q.Len())
		}
		if q.Top() != InfPriority {
			t.Errorf("%s: empty Top = %d, want InfPriority", name, q.Top())
		}
		if _, _, ok := q.Pop(); ok {
			t.Errorf("%s: Pop on empty returned ok", name)
		}
	}
}

func TestSingleElement(t *testing.T) {
	for name, mk := range makers() {
		q := mk()
		q.Push(42, 7)
		if q.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, q.Len())
		}
		if q.Top() != 42 {
			t.Errorf("%s: Top = %d, want 42", name, q.Top())
		}
		p, v, ok := q.Pop()
		if !ok || p != 42 || v != 7 {
			t.Errorf("%s: Pop = (%d,%d,%v), want (42,7,true)", name, p, v, ok)
		}
		if _, _, ok := q.Pop(); ok {
			t.Errorf("%s: second Pop returned ok", name)
		}
	}
}

func TestSortedExtraction(t *testing.T) {
	for name, mk := range makers() {
		q := mk()
		rng := rand.New(rand.NewSource(99))
		const n = 2000
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			p := uint64(rng.Intn(500)) // force many duplicates
			want[i] = p
			q.Push(p, i)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; i < n; i++ {
			if got := q.Top(); got != want[i] {
				t.Fatalf("%s: Top at step %d = %d, want %d", name, i, got, want[i])
			}
			p, _, ok := q.Pop()
			if !ok || p != want[i] {
				t.Fatalf("%s: Pop at step %d = (%d,%v), want %d", name, i, p, ok, want[i])
			}
		}
		if q.Len() != 0 {
			t.Errorf("%s: Len after draining = %d", name, q.Len())
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	for name, mk := range makers() {
		q := mk()
		ref := NewDHeap[int](2) // reference
		if name == "dheap2" {
			ref = NewDHeap[int](4)
		}
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 5000; step++ {
			if rng.Intn(3) != 0 || q.Len() == 0 {
				p := uint64(rng.Intn(1000))
				q.Push(p, step)
				ref.Push(p, step)
			} else {
				gp, _, gok := q.Pop()
				wp, _, wok := ref.Pop()
				if gok != wok || gp != wp {
					t.Fatalf("%s: step %d: Pop = (%d,%v), want (%d,%v)", name, step, gp, gok, wp, wok)
				}
			}
			if q.Len() != ref.Len() {
				t.Fatalf("%s: Len mismatch %d vs %d", name, q.Len(), ref.Len())
			}
		}
	}
}

func TestQuickSortedProperty(t *testing.T) {
	for name, mk := range makers() {
		f := func(ps []uint16) bool {
			q := mk()
			for i, p := range ps {
				q.Push(uint64(p), i)
			}
			prev := uint64(0)
			for range ps {
				p, _, ok := q.Pop()
				if !ok || p < prev {
					return false
				}
				prev = p
			}
			_, _, ok := q.Pop()
			return !ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValuesPreserved(t *testing.T) {
	// Each (priority, value) pair pushed must come back exactly once.
	for name, mk := range makers() {
		q := mk()
		const n = 500
		for i := 0; i < n; i++ {
			q.Push(uint64(i%37), i)
		}
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			_, v, ok := q.Pop()
			if !ok {
				t.Fatalf("%s: queue drained early at %d", name, i)
			}
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("%s: value %d duplicated or out of range", name, v)
			}
			seen[v] = true
		}
	}
}

func TestDHeapPopBatch(t *testing.T) {
	h := NewDHeap[int](4)
	for i := 20; i > 0; i-- {
		h.Push(uint64(i), i)
	}
	got := h.PopBatch(5, nil)
	if len(got) != 5 {
		t.Fatalf("PopBatch returned %d items", len(got))
	}
	for i, it := range got {
		if it.P != uint64(i+1) {
			t.Errorf("batch[%d].P = %d, want %d", i, it.P, i+1)
		}
	}
	if h.Len() != 15 {
		t.Errorf("Len after batch = %d, want 15", h.Len())
	}
	// Batch larger than remaining drains without error.
	rest := h.PopBatch(100, nil)
	if len(rest) != 15 {
		t.Errorf("final batch = %d items, want 15", len(rest))
	}
}

func TestDHeapClear(t *testing.T) {
	h := NewDHeapCap[int](4, 64)
	for i := 0; i < 50; i++ {
		h.Push(uint64(i), i)
	}
	h.Clear()
	if h.Len() != 0 || h.Top() != InfPriority {
		t.Fatal("Clear did not empty the heap")
	}
	h.Push(9, 9)
	if p, v, ok := h.Pop(); !ok || p != 9 || v != 9 {
		t.Fatal("heap unusable after Clear")
	}
}

func TestDHeapArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDHeap(1) did not panic")
		}
	}()
	NewDHeap[int](1)
}

func TestSkipListManyLevels(t *testing.T) {
	s := NewSeqSkipList[int](123)
	const n = 10000
	for i := n; i > 0; i-- {
		s.Push(uint64(i), i)
	}
	for i := 1; i <= n; i++ {
		p, v, ok := s.Pop()
		if !ok || p != uint64(i) || v != i {
			t.Fatalf("Pop %d = (%d,%d,%v)", i, p, v, ok)
		}
	}
}

func benchQueue(b *testing.B, mk func() Queue[int]) {
	q := mk()
	const window = 1024
	for i := 0; i < window; i++ {
		q.Push(uint64(i*2654435761)%100000, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, v, _ := q.Pop()
		q.Push(p+uint64(i%64), v)
	}
}

// BenchmarkLocalQueue_* is the §4 "optimal local data structure" ablation:
// it measures the push/pop cycle cost of each candidate thread-local queue.
func BenchmarkLocalQueue_DHeap2(b *testing.B) {
	benchQueue(b, func() Queue[int] { return NewDHeap[int](2) })
}
func BenchmarkLocalQueue_DHeap4(b *testing.B) {
	benchQueue(b, func() Queue[int] { return NewDHeap[int](4) })
}
func BenchmarkLocalQueue_DHeap8(b *testing.B) {
	benchQueue(b, func() Queue[int] { return NewDHeap[int](8) })
}
func BenchmarkLocalQueue_SkipList(b *testing.B) {
	benchQueue(b, func() Queue[int] { return NewSeqSkipList[int](1) })
}
