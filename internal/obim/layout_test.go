package obim

import (
	"testing"
	"unsafe"

	"repro/internal/contend"
)

// TestChunkQueuePadding pins the hand-computed pad in chunkQueue: the
// queue sits inline at the front of its bag, and its mutex, taken by
// every publish and refill, must share no cache line with the bag's size
// counter behind it, which each of them adds to after unlocking — at any
// alignment of the bag, so the counter starts a full line after the
// mutex's last byte.
func TestChunkQueuePadding(t *testing.T) {
	if sz := unsafe.Sizeof(chunkQueue[int]{}); sz != contend.CacheLineSize {
		t.Fatalf("chunkQueue size %d, want exactly %d; fix the pad array", sz, contend.CacheLineSize)
	}
	var b bag[int]
	last := unsafe.Offsetof(b.q) + unsafe.Offsetof(b.q.mu) + unsafe.Sizeof(b.q.mu) - 1
	if gap := unsafe.Offsetof(b.size) - last; gap < contend.CacheLineSize {
		t.Fatalf("bag size counter %d bytes after the queue mutex's last byte, want >= %d", gap, contend.CacheLineSize)
	}
}

// TestWorkerPadding checks that adjacent workers in the contiguous
// workers slice cannot share a cache line through the fields every Push
// and Pop writes (the chunk pointers, the free list, the adapt counter).
func TestWorkerPadding(t *testing.T) {
	ws := make([]worker[int], 2)
	end := uintptr(unsafe.Pointer(&ws[0].popsSinceAdapt)) + unsafe.Sizeof(ws[0].popsSinceAdapt)
	if next := uintptr(unsafe.Pointer(&ws[1])); next-end < contend.CacheLineSize {
		t.Fatalf("adjacent workers' hot fields only %d bytes apart, want >= %d", next-end, contend.CacheLineSize)
	}
}

// TestDeltaPadding checks that PMOD's Δ, which every Push loads, shares
// no cache line with the fields around it: the mutex, the hint and the
// statistics window after it are written by refills.
func TestDeltaPadding(t *testing.T) {
	var s Sched[int]
	start := unsafe.Offsetof(s.delta)
	end := start + unsafe.Sizeof(s.delta)
	if before := unsafe.Offsetof(s.cfg) + unsafe.Sizeof(s.cfg); start-before < contend.CacheLineSize {
		t.Fatalf("delta only %d bytes after cfg, want >= %d", start-before, contend.CacheLineSize)
	}
	if after := unsafe.Offsetof(s.mu); after-end < contend.CacheLineSize {
		t.Fatalf("mu only %d bytes after delta, want >= %d", after-end, contend.CacheLineSize)
	}
}
