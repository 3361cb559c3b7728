package pq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
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

func TestDHeapArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDHeap(1) did not panic")
		}
	}()
	NewDHeap[int](1)
}

// TestDHeapLayout pins what the embedding structs and the sift count
// on: the header fits 40 bytes (mq.lockQueue is one cache line and
// core.heapQueue's owner words two, with the header inside), and every
// sibling group of keys starts on a boundary of its own size, from the
// first allocation through every growth.
func TestDHeapLayout(t *testing.T) {
	if sz := unsafe.Sizeof(DHeap[int]{}); sz > 40 {
		t.Fatalf("DHeap header is %d bytes, want <= 40", sz)
	}
	for _, d := range []int{2, 4, 8} {
		for _, h := range []*DHeap[int]{NewDHeap[int](d), NewDHeapCap[int](d, 1000)} {
			lastCap := -1
			for i := 0; i < 5000; i++ {
				h.Push(uint64(i), i)
				if cap(h.keys) == lastCap {
					continue
				}
				lastCap = cap(h.keys)
				// The children of slot 0 start at slot 1.
				if at := uintptr(unsafe.Pointer(unsafe.SliceData(h.keys))) + 8; at%uintptr(8*d) != 0 {
					t.Fatalf("d=%d, capacity %d: first sibling group at address %#x, not %d-byte aligned", d, lastCap, at, 8*d)
				}
			}
		}
	}
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

// refSiftDown is the sift-down DHeap had before its child selection went
// branch-free, verbatim: the oracle for the exact (P, V) order below.
func refSiftDown[T any](items []Item[T], d, i int, it Item[T], n int) {
	for {
		first := i*d + 1
		if first >= n {
			break
		}
		end := first + d
		if end > n {
			end = n
		}
		best := first
		bestP := items[first].P
		for c := first + 1; c < end; c++ {
			if p := items[c].P; p < bestP {
				best, bestP = c, p
			}
		}
		if bestP >= it.P {
			break
		}
		items[i] = items[best]
		i = best
	}
	items[i] = it
}

// refHeap is the reference heap of the order tests: Items in one slice,
// the layout DHeap had when refSiftDown was its sift, so that the oracle
// shares no code or field with the heap under test.
type refHeap[T any] struct {
	d     int
	items []Item[T]
}

func newRefHeap[T any](d int) *refHeap[T] { return &refHeap[T]{d: d} }

// Push is DHeap.Push as it was over Items.
func (h *refHeap[T]) Push(p uint64, v T) {
	h.items = append(h.items, Item[T]{P: p, V: v})
	i := len(h.items) - 1
	it := h.items[i]
	for i > 0 {
		parent := (i - 1) / h.d
		if h.items[parent].P <= it.P {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = it
}

// refPop is DHeap.Pop over refSiftDown.
func refPop[T any](h *refHeap[T]) Item[T] {
	top := h.items[0]
	last := len(h.items) - 1
	moved := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		refSiftDown(h.items, h.d, 0, moved, last)
	}
	return top
}

// orderCases are priority streams on which a shortcut in the child
// selection breaks: a select on the sign of p-bestP, or a signed compare,
// is right whenever all priorities are below 2^63 and close together —
// which is every other test in this file — and wrong across the middle
// or the ends of the range. Ties pin the strict-less tie-break: the first
// of equal siblings wins, and which payload comes out first depends on it.
func orderCases(n int) []orderCase {
	rng := rand.New(rand.NewSource(int64(n)))
	edges := []uint64{0, 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1}
	full, high, edge, ties := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := 0; i < n; i++ {
		full[i] = rng.Uint64()
		high[i] = rng.Uint64() | 1<<63
		edge[i] = edges[rng.Intn(len(edges))]
		ties[i] = edges[i/17%len(edges)] // 17 equal priorities in a row
	}
	return []orderCase{{"full-range", full}, {"high-half", high}, {"edges", edge}, {"tie-runs", ties}}
}

type orderCase struct {
	name string
	ps   []uint64
}

// TestDHeapMatchesReferenceSiftDown checks that Pop and PopBatch return
// the exact (P, V) sequence of the branchy reference, over the whole
// uint64 range and for sizes whose last sibling group is partial (a drain
// passes through every size below its start). The tie order is part of
// the contract: -exp theory's byte-identity and the lockstep
// work-increase table replay pop sequences.
func TestDHeapMatchesReferenceSiftDown(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		for _, n := range []int{d + 2, 8*d + 3, 1000} {
			for _, c := range orderCases(n) {
				name, ps := c.name, c.ps
				scalar, batch, ref := NewDHeap[int](d), NewDHeap[int](d), newRefHeap[int](d)
				for i, p := range ps {
					scalar.Push(p, i)
					batch.Push(p, i)
					ref.Push(p, i)
				}
				var got []Item[int]
				for k := 1; batch.Len() > 0; k = k%7 + 1 {
					got = batch.PopBatch(k, got)
				}
				for i := 0; i < n; i++ {
					want := refPop(ref)
					if p, v, ok := scalar.Pop(); !ok || p != want.P || v != want.V {
						t.Fatalf("d=%d n=%d %s: Pop %d = (%d,%d,%v), reference (%d,%d)", d, n, name, i, p, v, ok, want.P, want.V)
					}
					if got[i] != want {
						t.Fatalf("d=%d n=%d %s: PopBatch item %d = %v, reference %v", d, n, name, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestDHeapBatchPushesMatchReference checks that the batched insert
// builds the heap a loop of Push builds: PushPairs, fed the priority
// streams of orderCases in runs of 1 to 7, pops the exact (P, V) sequence
// of the branchy reference built by scalar pushes.
func TestDHeapBatchPushesMatchReference(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		for _, c := range orderCases(8*d + 3) {
			pairs, ref := NewDHeap[int](d), newRefHeap[int](d)
			for i, p := range c.ps {
				ref.Push(p, i)
			}
			for i, k := 0, 1; i < len(c.ps); i, k = i+k, k%7+1 {
				end := min(i+k, len(c.ps))
				var vs []int
				for j := i; j < end; j++ {
					vs = append(vs, j)
				}
				pairs.PushPairs(c.ps[i:end], vs)
			}
			for i := range c.ps {
				want := refPop(ref)
				if p, v, ok := pairs.Pop(); !ok || p != want.P || v != want.V {
					t.Fatalf("d=%d %s: Pop %d = (%d,%d,%v), reference (%d,%d)", d, c.name, i, p, v, ok, want.P, want.V)
				}
			}
		}
	}
}

// dheapScript encodes a FuzzDHeapOrder input: the arity index, then ps
// pushed in batches of up to 5 with a scalar push between them, then one
// ReplaceTop per priority of ps in reverse order, then a drain
// alternating PopBatch(3) and Pop.
func dheapScript(arity byte, ps []uint64) []byte {
	out := []byte{arity}
	drains := (len(ps) + 3) / 4 // each drain step pops 3 + 1
	for rest := ps; len(rest) > 0; {
		k := min(5, len(rest)-1)
		out = append(out, byte(k*5+3))
		for _, p := range rest[:k] {
			out = binary.LittleEndian.AppendUint64(out, p)
		}
		out = append(out, 0)
		out = binary.LittleEndian.AppendUint64(out, rest[k])
		rest = rest[k+1:]
	}
	for i := len(ps) - 1; i >= 0; i-- {
		out = append(out, 4)
		out = binary.LittleEndian.AppendUint64(out, ps[i])
	}
	for ; drains > 0; drains-- {
		out = append(out, 3*5+2, 1)
	}
	return out
}

// FuzzDHeapOrder drives a DHeap with an op stream decoded from the input
// and checks it op by op against a sorted slice: every pop returns the
// smallest priority queued, Len and Top agree, and each payload comes out
// once, with the priority it went in with. Byte 0 picks the arity; each
// op is one byte (the byte mod 5: Push, Pop, PopBatch, PushPairs,
// ReplaceTop; the byte div 5: k) and each pushed priority the next
// eight. ReplaceTop is checked as a Peek, whose task counts as popped,
// followed by the replacement's push.
func FuzzDHeapOrder(f *testing.F) {
	for a := byte(0); a < 4; a++ {
		for _, c := range orderCases(37 + int(a)) {
			f.Add(dheapScript(a, c.ps))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := NewDHeap[int]([]int{2, 3, 4, 8}[data[0]&3])
		data = data[1:]
		var sorted []uint64 // the oracle: priorities queued, ascending
		var pushed []uint64 // payload -> its priority
		var popped []bool   // payload -> already returned
		var batch []Item[int]
		var ps []uint64
		var vs []int
		next := func() (Item[int], bool) {
			if len(data) < 8 {
				return Item[int]{}, false
			}
			it := Item[int]{P: binary.LittleEndian.Uint64(data), V: len(pushed)}
			data = data[8:]
			i, _ := slices.BinarySearch(sorted, it.P)
			sorted = slices.Insert(sorted, i, it.P)
			pushed = append(pushed, it.P)
			popped = append(popped, false)
			return it, true
		}
		check := func(it Item[int]) {
			if it.P != sorted[0] {
				t.Fatalf("popped priority %d, smallest queued is %d", it.P, sorted[0])
			}
			sorted = sorted[1:]
			if it.V < 0 || it.V >= len(pushed) || popped[it.V] || pushed[it.V] != it.P {
				t.Fatalf("popped (%d,%d): payload unknown, repeated or under another priority", it.P, it.V)
			}
			popped[it.V] = true
		}
		for len(data) > 0 {
			op, k := data[0]%5, int(data[0]/5)
			data = data[1:]
			switch op {
			case 0:
				if it, ok := next(); ok {
					h.Push(it.P, it.V)
				}
			case 1:
				p, v, ok := h.Pop()
				if ok != (len(sorted) > 0) {
					t.Fatalf("Pop ok = %v with %d queued", ok, len(sorted))
				}
				if ok {
					check(Item[int]{P: p, V: v})
				}
			case 2:
				batch = h.PopBatch(k, batch[:0])
				if want := min(k, len(sorted)); len(batch) != want {
					t.Fatalf("PopBatch(%d) returned %d items with %d queued", k, len(batch), len(sorted))
				}
				for _, it := range batch {
					check(it)
				}
			case 3:
				ps, vs = ps[:0], vs[:0]
				for ; k > 0; k-- {
					if it, ok := next(); ok {
						ps, vs = append(ps, it.P), append(vs, it.V)
					}
				}
				h.PushPairs(ps, vs)
			case 4:
				p, v, ok := h.Peek()
				if ok != (len(sorted) > 0) {
					t.Fatalf("Peek ok = %v with %d queued", ok, len(sorted))
				}
				if ok {
					check(Item[int]{P: p, V: v})
				}
				if it, more := next(); more {
					h.ReplaceTop(it.P, it.V) // a Push when the heap is empty
				} else if ok {
					h.Pop() // no replacement left in the input: the peeked task goes
				}
			}
			if h.Len() != len(sorted) {
				t.Fatalf("Len = %d, oracle holds %d", h.Len(), len(sorted))
			}
			want := uint64(InfPriority)
			if len(sorted) > 0 {
				want = sorted[0]
			}
			if h.Top() != want {
				t.Fatalf("Top = %d, want %d", h.Top(), want)
			}
		}
	})
}

// benchQueue runs the hold pattern (pop the minimum, push it back a
// little later) on mk's queue at three resident sizes: 2^10 is five d = 4
// levels in L1, 2^13 is the size an SMQ worker's heap reaches on the
// graph workloads, and 2^16 is the bench's hold prefill, past L2 with a
// 16-byte item. A queue with ReplaceTop also runs the cycle as one
// ReplaceTop after a Peek (the sub-benchmark suffixed /replace), which is
// what the SMQ owner's deferred pop makes of a pop that a push follows:
// the difference between the two is the cost of the second sift.
func benchQueue[T any](b *testing.B, payload string, mk func() Queue[T]) {
	for _, resident := range []int{1 << 10, 1 << 13, 1 << 16} {
		fill := func() Queue[T] {
			q := mk()
			var v T
			for i := 0; i < resident; i++ {
				q.Push(uint64(i*2654435761)%100000, v)
			}
			return q
		}
		b.Run(fmt.Sprintf("%s/%d", payload, resident), func(b *testing.B) {
			q := fill()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, v, _ := q.Pop()
				q.Push(p+uint64(i%64), v)
			}
		})
		if _, ok := mk().(replacer[T]); !ok {
			continue
		}
		b.Run(fmt.Sprintf("%s/%d/replace", payload, resident), func(b *testing.B) {
			q := fill().(replacer[T])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, v, _ := q.Peek()
				q.ReplaceTop(p+uint64(i%64), v)
			}
		})
	}
}

// replacer is the fused pop-then-push of DHeap.
type replacer[T any] interface {
	Peek() (uint64, T, bool)
	ReplaceTop(uint64, T)
}

// BenchmarkLocalQueue_* is the §4 "optimal local data structure" ablation:
// it measures the push/pop cycle cost of each candidate thread-local
// queue, with the int payload of the tests and the uint32 one of the
// graph workloads and bench/ — the instantiation the schedulers run.
// Both make a 16-byte item, four siblings to a cache line.
func BenchmarkLocalQueue_DHeap2(b *testing.B) {
	benchQueue(b, "int", func() Queue[int] { return NewDHeap[int](2) })
	benchQueue(b, "uint32", func() Queue[uint32] { return NewDHeap[uint32](2) })
}
func BenchmarkLocalQueue_DHeap4(b *testing.B) {
	benchQueue(b, "int", func() Queue[int] { return NewDHeap[int](4) })
	benchQueue(b, "uint32", func() Queue[uint32] { return NewDHeap[uint32](4) })
}
func BenchmarkLocalQueue_DHeap8(b *testing.B) {
	benchQueue(b, "int", func() Queue[int] { return NewDHeap[int](8) })
	benchQueue(b, "uint32", func() Queue[uint32] { return NewDHeap[uint32](8) })
}
func BenchmarkLocalQueue_SkipList(b *testing.B) {
	benchQueue(b, "int", func() Queue[int] { return NewSeqSkipList[int](1) })
	benchQueue(b, "uint32", func() Queue[uint32] { return NewSeqSkipList[uint32](1) })
}
