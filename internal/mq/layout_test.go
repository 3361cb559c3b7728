package mq

import (
	"testing"
	"unsafe"

	"repro/internal/contend"
	"repro/internal/pq"
)

// TestLockQueuePadding pins what lockQueue's layout is for: a queue is
// exactly one cache line, and the heap header (embedded by value — a
// pointer field does not compile below) and the cached top sit in it with
// the lock word. Lines are counted from the slice base, so the check does
// not depend on how the allocator aligned this slice. Adjacent queues'
// headers are then a line apart; as separate 48-byte objects they shared
// lines.
func TestLockQueuePadding(t *testing.T) {
	const line = contend.CacheLineSize
	if sz := unsafe.Sizeof(lockQueue[int]{}); sz != line {
		t.Fatalf("lockQueue size %d, want one %d-byte cache line; fix the pad array", sz, line)
	}
	for name, cfg := range map[string]Config{
		"classic":    Classic(2, 4),
		"engineered": Engineered(2),
	} {
		t.Run(name, func(t *testing.T) {
			qs := New[int](cfg).queues
			base := uintptr(unsafe.Pointer(&qs[0]))
			for i := range qs {
				var h *pq.DHeap[int] = &qs[i].heap
				lo := uintptr(unsafe.Pointer(h)) - base
				hi := uintptr(unsafe.Pointer(&qs[i].top)) + unsafe.Sizeof(qs[i].top) - 1 - base
				if lo/line != uintptr(i) || hi/line != uintptr(i) {
					t.Errorf("queue %d: heap header and cached top span bytes %d..%d of the slice, not inside line %d", i, lo, hi, i)
				}
				if i > 0 {
					var prev *pq.DHeap[int] = &qs[i-1].heap
					if d := uintptr(unsafe.Pointer(h)) - uintptr(unsafe.Pointer(prev)); d < line {
						t.Errorf("queues %d and %d: heap headers %d bytes apart, want >= %d", i-1, i, d, line)
					}
				}
			}
		})
	}
}

// TestWorkerPadding checks that adjacent workers in the contiguous
// workers slice cannot share a cache line through their hot mutable
// fields: lastIns/lastDel/delIdx on every operation, and the sticky
// pair's countdown under Stickiness.
func TestWorkerPadding(t *testing.T) {
	ws := make([]mqWorker[int], 2)
	for name, hot := range map[string]func(w *mqWorker[int]) uintptr{
		"temporal": func(w *mqWorker[int]) uintptr { return uintptr(unsafe.Pointer(&w.lastIns)) },
		"sticky":   func(w *mqWorker[int]) uintptr { return uintptr(unsafe.Pointer(&w.stick)) },
	} {
		t.Run(name, func(t *testing.T) {
			if d := hot(&ws[1]) - hot(&ws[0]); d < 64 {
				t.Fatalf("adjacent workers' hot fields only %d bytes apart, want >= 64", d)
			}
		})
	}
}
