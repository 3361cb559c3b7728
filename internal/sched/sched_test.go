package sched

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/contend"
)

func TestStatsAdd(t *testing.T) {
	a := Stats{Pushes: 1, Pops: 2, EmptyPops: 3, Steals: 4, StolenTask: 5, StealFails: 6, LockFails: 7, Remote: 8}
	b := Stats{Pushes: 10, Pops: 20, EmptyPops: 30, Steals: 40, StolenTask: 50, StealFails: 60, LockFails: 70, Remote: 80}
	a.Add(b)
	want := Stats{Pushes: 11, Pops: 22, EmptyPops: 33, Steals: 44, StolenTask: 55, StealFails: 66, LockFails: 77, Remote: 88}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestSumCounters(t *testing.T) {
	cs := make([]Counters, 4)
	for i := range cs {
		cs[i].Pushes = uint64(i + 1)
		cs[i].Pops = uint64(2 * (i + 1))
	}
	got := SumCounters(cs)
	if got.Pushes != 10 || got.Pops != 20 {
		t.Fatalf("SumCounters = %+v", got)
	}
}

func TestCountersCacheLinePadding(t *testing.T) {
	sz := unsafe.Sizeof(Counters{})
	if sz%64 != 0 {
		t.Fatalf("Counters size %d is not a multiple of 64", sz)
	}
}

func TestPendingLifecycle(t *testing.T) {
	var p Pending
	if p.Load() != 0 {
		t.Fatal("fresh Pending not Done")
	}
	p.Inc(3)
	if p.Load() == 0 || p.Load() != 3 {
		t.Fatalf("after Inc(3): Load=%d Done=%v", p.Load(), p.Load() == 0)
	}
	p.Dec()
	p.Dec()
	p.Dec()
	if p.Load() != 0 {
		t.Fatal("Pending not Done after matching Decs")
	}
}

func TestPendingConcurrent(t *testing.T) {
	var p Pending
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.Inc(1)
				p.Dec()
			}
		}()
	}
	wg.Wait()
	if p.Load() != 0 {
		t.Fatalf("Pending = %d after balanced concurrent updates", p.Load())
	}
}

func TestBackoffProgresses(t *testing.T) {
	var b Backoff
	for i := 0; i < 100; i++ {
		b.Wait() // must not hang or panic
	}
	b.Reset()
	if b.polls != 0 {
		t.Fatal("Reset did not clear polls")
	}
}

// TestRunWorkerPadding pins the layout of Run's per-worker state: the
// slots live in one contiguous slice, and every batch writes the tally
// and the sink headers, so adjacent workers' slots must never cohabit a
// cache line.
func TestRunWorkerPadding(t *testing.T) {
	ws := make([]contend.Padded[runWorker[int]], 2)
	end := uintptr(unsafe.Pointer(&ws[0].Value)) + unsafe.Sizeof(ws[0].Value)
	if next := uintptr(unsafe.Pointer(&ws[1].Value)); next-end < contend.CacheLineSize {
		t.Fatalf("adjacent run workers only %d bytes apart, want >= %d", next-end, contend.CacheLineSize)
	}
}
