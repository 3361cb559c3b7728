//go:build stress

package cskiplist

// Long-running -race stress for the concurrent skip list, gated behind
// the stress build tag (CI runs it in a dedicated job alongside the
// cbpq stress suite; it is too slow for the default -short test pass).
// The workload mixes Insert, DeleteMin, DeleteMinBatch and Spray from
// many goroutines and checks count conservation: everything inserted is
// deleted exactly once, and the final drain is empty.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pq"
	"repro/internal/xrand"
)

func stressRun(t *testing.T, goroutines, perG int) {
	t.Helper()
	s := New[uint64](7)
	total := goroutines * perG
	seen := make([]atomic.Int32, total)
	var inserted, deleted atomic.Int64

	record := func(v uint64) {
		if v >= uint64(total) {
			t.Errorf("implausible value %d", v)
			return
		}
		if seen[v].Add(1) != 1 {
			t.Errorf("value %d deleted more than once", v)
		}
		deleted.Add(1)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g + 1))
			params := DefaultSprayParams(goroutines)
			dst := make([]pq.Item[uint64], 0, 9)
			next := 0
			for next < perG {
				switch rng.Intn(4) {
				case 0, 1: // keep inserts ahead of deletes on average
					v := uint64(g*perG + next)
					s.Insert(uint64(rng.Intn(1<<20)), v)
					inserted.Add(1)
					next++
				case 2:
					if _, v, ok := s.DeleteMin(); ok {
						record(v)
					}
				case 3:
					if rng.Intn(2) == 0 {
						dst = s.DeleteMinBatch(1+rng.Intn(9), dst[:0])
						for _, it := range dst {
							record(it.V)
						}
					} else if _, v, ok := s.Spray(params, rng); ok {
						record(v)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if got := inserted.Load(); got != int64(total) {
		t.Fatalf("inserted %d, want %d", got, total)
	}
	// Single-threaded drain of the survivors; priorities must come out
	// ascending.
	prev := uint64(0)
	for {
		p, v, ok := s.DeleteMin()
		if !ok {
			break
		}
		if p < prev {
			t.Fatalf("drain out of order: %d after %d", p, prev)
		}
		prev = p
		record(v)
	}
	if got := deleted.Load(); got != int64(total) {
		t.Fatalf("conservation: inserted %d, deleted %d", total, got)
	}
	for v := range seen {
		if seen[v].Load() != 1 {
			t.Fatalf("value %d deleted %d times", v, seen[v].Load())
		}
	}
	if s.Top() != pq.InfPriority || int(s.size.Load()) != 0 {
		t.Fatalf("drained list not empty: Len=%d", int(s.size.Load()))
	}
}

func TestStressMixed(t *testing.T) {
	goroutines := runtime.GOMAXPROCS(0)
	if goroutines < 4 {
		goroutines = 4
	}
	stressRun(t, goroutines, 40000)
}

// TestStressOversubscribed squeezes many goroutines onto two Ps so they
// get preempted while holding node locks mid-unlink — interleavings an
// unoversubscribed run rarely produces.
func TestStressOversubscribed(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	stressRun(t, 3*prev+2, 15000)
}
