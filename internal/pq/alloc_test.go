//go:build !race

// testing.AllocsPerRun under the race detector measures the
// instrumentation's allocations, not the queue's.

package pq

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSteadyStateBucketHoldAllocFree: the hold cycle — pop the minimum,
// push it back a little later — allocates nothing once the queue has room
// for its resident tasks. The tasks start spread over some windows, and
// every 64th cycle pushes two windows below the popped task instead. Over
// 64 windows pops slide the window and evict into the heap; over 2 the
// heap serves a quarter of them.
func TestSteadyStateBucketHoldAllocFree(t *testing.T) {
	for _, windows := range []int{64, 2} {
		t.Run(fmt.Sprintf("%d windows", windows), func(t *testing.T) {
			const resident = 4096
			q := NewBucketQueue[int](resident)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < resident; i++ {
				q.Push(uint64(rng.Intn(windows*bucketWindow)), i)
			}
			cycle := 0
			hold := func() {
				p, v, _ := q.Pop()
				if cycle++; cycle%64 == 0 && p >= 2*bucketWindow {
					p -= 2 * bucketWindow
				}
				q.Push(p+uint64(rng.Intn(64)), v)
			}
			for i := 0; i < 1<<14; i++ {
				hold()
			}
			if allocs := testing.AllocsPerRun(1<<14, hold); allocs != 0 {
				t.Fatalf("hold cycle allocates %.2f times per pair, want 0", allocs)
			}
		})
	}
}
