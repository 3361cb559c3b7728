package core

import (
	"testing"
	"unsafe"
)

// TestHeapQueueLayout checks the split of heapQueue: the owner words
// (the local queue's header, embedded by value, the batch size and the
// run) end on a cache-line boundary, so the thief-shared words (state,
// top, buf) start a fresh line and steal CAS traffic never invalidates
// the owner's lines; the shared words fit one line; and the whole header
// rounds to a line multiple so adjacent allocations cannot bleed in.
func TestHeapQueueLayout(t *testing.T) {
	var q heapQueue[int]
	if off := unsafe.Offsetof(q.state); off%64 != 0 {
		t.Fatalf("heapQueue.state at offset %d: the owner words must end on a line boundary", off)
	}
	if end := unsafe.Offsetof(q.buf) + unsafe.Sizeof(q.buf); end-unsafe.Offsetof(q.state) > 64 {
		t.Fatalf("thief-shared words span %d bytes, want one line", end-unsafe.Offsetof(q.state))
	}
	if sz := unsafe.Sizeof(q); sz%64 != 0 {
		t.Fatalf("heapQueue size %d is not a multiple of 64; fix the pads", sz)
	}
	// The item array is whole lines too: the owner rewrites it on every
	// refill, next to whatever the allocator placed beside it.
	for _, stealSize := range []int{1, 4, 5, 64} {
		if c := cap(newHeapQueue[int](stealSize).buf); c < stealSize || c*int(unsafe.Sizeof(q.buf[0]))%64 != 0 {
			t.Fatalf("stealSize %d: item array of %d items is not whole cache lines", stealSize, c)
		}
	}
}

// TestWorkerPadding checks that adjacent workers in the contiguous
// workers slice cannot share a cache line through their hot mutable
// fields (stolenIdx and the buffer headers).
func TestWorkerPadding(t *testing.T) {
	ws := make([]smqWorker[int], 2)
	a := uintptr(unsafe.Pointer(&ws[0].stolenIdx))
	b := uintptr(unsafe.Pointer(&ws[1].stolenIdx))
	if b-a < 64 {
		t.Fatalf("adjacent workers' hot fields only %d bytes apart, want >= 64", b-a)
	}
}
