//go:build !race

// Malloc counts under the race detector measure the instrumentation,
// not the library; CI runs this file in the non-race alloc step.

package smq_test

import (
	"runtime"
	"testing"

	smq "repro"
)

// TestSteadyStateProcessAllocFree gates the batched Process loop at zero
// allocations per task once it is warm: a hold-style run on one worker
// (every task re-emits itself until the budget is spent) keeps the
// queue, the pop buffer and the sink at their steady sizes, so nothing
// between the warm-up mark and the last task may allocate. One worker
// keeps the measurement on the goroutine that does the work (and keeps
// the SMQ's by-design steal-batch allocations out of it).
func TestSteadyStateProcessAllocFree(t *testing.T) {
	const resident, warm, total = 1024, 50_000, 250_000
	for _, name := range []string{"smq", "mq"} {
		t.Run(name, func(t *testing.T) {
			spec, _ := smq.LookupSpec[int](name)
			var before, after runtime.MemStats
			done := 0
			smq.Process(spec.Build(1, 5),
				func(w smq.Worker[int]) {
					for i := 0; i < resident; i++ {
						w.Push(uint64(i), i)
					}
				},
				func(_ int, w smq.Worker[int], pending *smq.Pending, p uint64, v int) {
					done++
					switch {
					case done == warm:
						runtime.ReadMemStats(&before)
					case done == total:
						runtime.ReadMemStats(&after)
					}
					if done <= total-resident {
						pending.Inc(1)
						w.Push(p+uint64(v%64), v)
					}
				})
			if done != total {
				t.Fatalf("processed %d tasks, want %d", done, total)
			}
			if allocs := after.Mallocs - before.Mallocs; allocs*1000 > total-warm {
				t.Fatalf("steady state allocated %d objects over %d tasks (%.4f per task), want 0",
					allocs, total-warm, float64(allocs)/float64(total-warm))
			}
		})
	}
}
