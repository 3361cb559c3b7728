package pq

import (
	"runtime"
	"testing"
)

// These regression tests pin the zero-alloc-steady-state contract's
// other half: popping a task must actually RELEASE its payload. A heap
// that truncates its slice without zeroing the vacated slot keeps every
// popped pointerful payload reachable through the backing array — a
// real leak for schedulers that stay alive across workloads.
//
// Detection uses runtime.AddCleanup on a pointer payload: after the
// structure pops (and drops all its own references to) the payload, a
// forced GC must run the cleanup. The structure itself is kept alive
// across the GC so the only way the cleanup can run is the structure
// having genuinely cleared its slot.

// popAll is implemented by every sequential queue under test.
type popAll interface {
	Push(p uint64, v *[64]byte)
	Pop() (uint64, *[64]byte, bool)
	Len() int
}

// testPayloadReleased pushes n payloads, task i at priority prio(i), pops
// them all and checks that q released every one.
func testPayloadReleased(t *testing.T, name string, q popAll, prio func(i int) uint64) {
	t.Helper()
	const n = 50
	released := make(chan int, n)
	for i := 0; i < n; i++ {
		payload := &[64]byte{byte(i)}
		runtime.AddCleanup(payload, func(i int) { released <- i }, i)
		q.Push(prio(i), payload)
	}
	for i := 0; i < n; i++ {
		if _, _, ok := q.Pop(); !ok {
			t.Fatalf("%s: Pop %d failed", name, i)
		}
	}
	// Every payload is now popped and no longer referenced by the test;
	// only a retained slot inside q could keep one alive. Cleanups run
	// asynchronously after GC, so allow a few cycles.
	got := 0
	for attempt := 0; attempt < 20 && got < n; attempt++ {
		runtime.GC()
		for len(released) > 0 {
			<-released
			got++
		}
	}
	runtime.KeepAlive(q)
	if got != n {
		t.Fatalf("%s retained %d of %d popped payloads (vacated slots not zeroed)", name, n-got, n)
	}
}

func ascending(i int) uint64 { return uint64(i) }

func TestDHeapReleasesPoppedPayloads(t *testing.T) {
	testPayloadReleased(t, "DHeap", NewDHeap[*[64]byte](4), ascending)
}

func TestSeqSkipListReleasesPoppedPayloads(t *testing.T) {
	testPayloadReleased(t, "SeqSkipList", NewSeqSkipList[*[64]byte](1), ascending)
}

// TestBucketQueueReleasesPoppedPayloads covers the buckets alone, and a
// descending spread of 1 000 apart, where the window takes the first five
// tasks, the heap the rest, and the first pop evicts the five into the
// heap before the window moves to its minimum.
func TestBucketQueueReleasesPoppedPayloads(t *testing.T) {
	testPayloadReleased(t, "BucketQueue", NewBucketQueue[*[64]byte](0), ascending)
	testPayloadReleased(t, "BucketQueue (spread)", NewBucketQueue[*[64]byte](0),
		func(i int) uint64 { return uint64(49-i) * 1000 })
}

// TestDHeapPopBatchReleasesSlots covers the batched extraction path the
// schedulers actually use (PopBatch → Pop), with the batch destination
// cleared by the caller as the scheduler buffers do.
func TestDHeapPopBatchReleasesSlots(t *testing.T) {
	h := NewDHeap[*[64]byte](4)
	const n = 32
	released := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		payload := &[64]byte{byte(i)}
		runtime.AddCleanup(payload, func(struct{}) { released <- struct{}{} }, struct{}{})
		h.Push(uint64(i), payload)
	}
	dst := h.PopBatch(n, nil)
	if len(dst) != n {
		t.Fatalf("PopBatch returned %d items, want %d", len(dst), n)
	}
	clear(dst) // what mq's delete buffer does as entries are served
	got := 0
	for attempt := 0; attempt < 20 && got < n; attempt++ {
		runtime.GC()
		for len(released) > 0 {
			<-released
			got++
		}
	}
	runtime.KeepAlive(h)
	if got != n {
		t.Fatalf("DHeap+PopBatch retained %d of %d payloads", n-got, n)
	}
}
