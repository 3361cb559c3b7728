package pq

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// bucketState checks where q keeps its tasks: n in the buckets, inHeap in
// the heap, and, with tasks bucketed, the window's first priority.
func bucketState(t *testing.T, q *BucketQueue[int], n, inHeap int, base uint64) {
	t.Helper()
	if q.n != n || q.heap.Len() != inHeap || (n > 0 && q.base != base) {
		t.Fatalf("%d bucketed, %d in the heap, base %d; want %d, %d, %d", q.n, q.heap.Len(), q.base, n, inHeap, base)
	}
}

// bucketPops pops len(want) tasks and checks their priorities.
func bucketPops(t *testing.T, q *BucketQueue[int], want ...uint64) {
	t.Helper()
	for _, w := range want {
		if p, _, ok := q.Pop(); !ok || p != w {
			t.Fatalf("Pop = (%d, %v), want %d", p, ok, w)
		}
	}
}

// TestBucketQueueSlides: a push below the window slides it down when every
// bucketed task still fits and goes to the heap when not; a pop that finds
// the heap's minimum below the window slides the window to it when the
// bucketed tasks fit, and the heap's tasks inside the moved window follow
// into their buckets.
func TestBucketQueueSlides(t *testing.T) {
	q := NewBucketQueue[int](0)
	q.Push(10000, 0) // an empty window is placed at the push
	q.Push(8000, 1)  // below, and 10000 still fits: slide
	bucketState(t, q, 2, 0, 8000)
	q.Push(12104, 2) // 12104 - 8000 = 4104: above the window
	q.Push(5000, 3)  // below, and 10000 would not fit
	bucketState(t, q, 2, 2, 8000)

	q = NewBucketQueue[int](0)
	q.Push(0, 0)
	q.Push(5000, 1) // above the window at 0
	q.Push(7000, 2)
	bucketPops(t, q, 0) // the window is empty now
	q.Push(6000, 3)     // and is placed at 6000
	bucketState(t, q, 1, 2, 6000)
	// 5000 is below the window and 6000 fits a window at 5000: slide, and
	// 7000 comes along from the heap.
	bucketPops(t, q, 5000)
	bucketState(t, q, 2, 0, 6000)
	bucketPops(t, q, 6000, 7000)
	bucketState(t, q, 0, 0, 0)
}

// TestBucketQueueEvictsAndRefills: when the heap's minimum is below the
// window, the window cannot slide to it and holds no more tasks than the
// heap, a pop moves the bucketed tasks into the heap and places the
// window at the heap's minimum, taking in every heap task that fits.
func TestBucketQueueEvictsAndRefills(t *testing.T) {
	q := NewBucketQueue[int](0)
	q.Push(100000, 0)
	q.Push(100001, 1)
	for p := uint64(0); p < 3; p++ {
		q.Push(p, int(p)+2) // below, and the window cannot slide that far
	}
	bucketState(t, q, 2, 3, 100000)
	bucketPops(t, q, 0)
	bucketState(t, q, 2, 2, 1) // 1 and 2 bucketed, 100000 and 100001 in the heap
	bucketPops(t, q, 1, 2, 100000, 100001)
}

// TestBucketQueueHeapServes: when the window cannot slide to the heap's
// minimum and holds more tasks than the heap, the heap serves the pop and
// the window stays as it is.
func TestBucketQueueHeapServes(t *testing.T) {
	q := NewBucketQueue[int](0)
	for p := uint64(100000); p < 100003; p++ {
		q.Push(p, 0)
	}
	q.Push(0, 1)
	q.Push(1, 2)
	bucketPops(t, q, 0)
	bucketState(t, q, 3, 1, 100000)
	bucketPops(t, q, 1)
	bucketState(t, q, 3, 0, 100000)
	bucketPops(t, q, 100000, 100001, 100002)
}

// TestBucketQueueTiesAndWrap: equal priorities in a bucket pop newest
// first, and a window whose slots wrap past the last bucket pops in
// priority order, up to the largest valid priority.
func TestBucketQueueTiesAndWrap(t *testing.T) {
	q := NewBucketQueue[int](0)
	q.Push(5, 1)
	q.Push(5, 2)
	q.Push(5, 3)
	for _, want := range []int{3, 2, 1} {
		if _, v, _ := q.Pop(); v != want {
			t.Fatalf("tie popped payload %d, want %d (newest first)", v, want)
		}
	}
	for _, top := range []uint64{bucketWindow * 3, math.MaxUint64 - 1} {
		base := top - bucketWindow + 1
		q.Push(base+10, 0) // slot 10 of the last 4 096 priorities below top
		for _, p := range []uint64{top, base + 100, base, top - 64, base + 63, base + 64} {
			q.Push(p, 0)
		}
		bucketState(t, q, 7, 0, base)
		bucketPops(t, q, base, base+10, base+63, base+64, base+100, top-64, top)
		if _, _, ok := q.Pop(); ok {
			t.Fatal("Pop found a task in an empty queue")
		}
	}
}

// bucketAbs is a Push of priority p; bucketRel one relative to the
// smallest queued priority (or the last popped), off·16^scale.
func bucketAbs(p uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{0}, p) }
func bucketRel(off int16, scale int) []byte {
	return binary.LittleEndian.AppendUint16([]byte{4}, uint16(off<<2|int16(scale&3)))
}

// FuzzBucketOrder drives a BucketQueue with an op stream decoded from the
// input and checks it op by op against a sorted slice (orderOracle): every
// pop returns the smallest priority queued, Len and Top agree, and each
// payload comes out once. Each op is one byte, the byte mod 6: 0 Push of
// the next eight bytes; 1 Pop; 2 PopBatch(k); 3 PushPairs of k relative
// priorities; 4 Push of one relative priority; 5 a drain to empty, k
// being the byte div 6. A relative priority is two bytes, a 14-bit signed
// offset times 16^s (s the low two bits) from the smallest queued
// priority, or the last popped one, clamped to [0, MaxUint64-1]; so the
// stream pushes inside, just below and far below and above the window.
//
// The seeds place the window at 0 and next to MaxUint64-1, slide it,
// evict it, let the heap serve, and drain and refill.
func FuzzBucketOrder(f *testing.F) {
	pop, drain := []byte{1}, []byte{5}
	f.Add(slices.Concat(bucketAbs(0), bucketAbs(math.MaxUint64-1), bucketRel(100, 0), pop, pop, pop, pop))
	f.Add(slices.Concat(bucketAbs(1<<40), bucketRel(5, 1), bucketRel(-3, 2), bucketRel(-300, 3), bucketRel(7, 3),
		bucketRel(1, 0), bucketRel(1, 0), []byte{2 + 6*3}, drain, bucketRel(-1, 3), bucketRel(255, 1), drain))
	f.Add(slices.Concat(bucketAbs(math.MaxUint64-1), bucketRel(-4095, 0), bucketRel(-4096, 0), bucketRel(0, 0),
		[]byte{3 + 6*4}, bucketRel(1, 0)[1:], bucketRel(-1, 2)[1:], bucketRel(2, 3)[1:], bucketRel(-2, 1)[1:],
		pop, pop, []byte{2 + 6*10}))
	f.Add(slices.Concat(bucketAbs(5000), bucketAbs(100000), bucketAbs(100001), bucketAbs(0), bucketAbs(1), bucketAbs(2),
		pop, bucketRel(64, 0), pop, bucketRel(-1, 3), []byte{2 + 6*9}))
	f.Add(slices.Concat(bucketAbs(100000), bucketAbs(100001), bucketAbs(100002), bucketAbs(0), bucketAbs(1),
		pop, pop, bucketRel(-2000, 2), pop, drain))
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewBucketQueue[int](0)
		o := &orderOracle{t: t}
		var last uint64 // the last priority popped
		var batch []Item[int]
		var ps []uint64
		var vs []int
		rel := func() (Item[int], bool) {
			if len(data) < 2 {
				return Item[int]{}, false
			}
			x := int16(binary.LittleEndian.Uint16(data))
			data = data[2:]
			anchor := last
			if len(o.sorted) > 0 {
				anchor = o.sorted[0]
			}
			off := int64(x>>2) << (4 * (x & 3))
			p := anchor + uint64(off)
			switch {
			case off < 0 && p > anchor:
				p = 0
			case off > 0 && (p < anchor || p == InfPriority):
				p = InfPriority - 1
			}
			return o.push(p), true
		}
		for len(data) > 0 {
			op, k := data[0]%6, int(data[0]/6)
			data = data[1:]
			switch op {
			case 0:
				if len(data) >= 8 {
					it := o.push(min(binary.LittleEndian.Uint64(data), InfPriority-1))
					data = data[8:]
					q.Push(it.P, it.V)
				}
			case 1:
				p, v, ok := q.Pop()
				o.popOne(p, v, ok)
				if ok {
					last = p
				}
			case 2:
				batch = q.PopBatch(k, batch[:0])
				o.popBatch(k, batch)
				if len(batch) > 0 {
					last = batch[len(batch)-1].P
				}
			case 3:
				ps, vs = ps[:0], vs[:0]
				for ; k > 0; k-- {
					if it, ok := rel(); ok {
						ps, vs = append(ps, it.P), append(vs, it.V)
					}
				}
				q.PushPairs(ps, vs)
			case 4:
				if it, ok := rel(); ok {
					q.Push(it.P, it.V)
				}
			case 5:
				for len(o.sorted) > 0 {
					p, v, ok := q.Pop()
					o.popOne(p, v, ok)
					last = p
				}
				o.popOne(q.Pop())
			}
			o.agree(q)
		}
	})
}
