package core

import (
	"testing"
	"unsafe"
)

// TestHeapQueueLayout checks the two-line split of heapQueue: the owner
// words (the heap header, embedded by value, and the batch size) fill
// the first cache line exactly, so the thief-shared words (buf, state)
// start a fresh one and steal CAS traffic never invalidates the owner's
// line, and the whole header must round to a line multiple so adjacent
// allocations cannot bleed in.
func TestHeapQueueLayout(t *testing.T) {
	var q heapQueue[int]
	if off := unsafe.Offsetof(q.buf); off != 64 {
		t.Fatalf("heapQueue.buf at offset %d, want 64: the owner words are one line", off)
	}
	if sz := unsafe.Sizeof(q); sz%64 != 0 {
		t.Fatalf("heapQueue size %d is not a multiple of 64; fix the pads", sz)
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
