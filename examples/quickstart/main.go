// Quickstart: create a Stealing Multi-Queue, seed it with prioritized
// jobs, and drain it with several workers. The output shows the two
// defining behaviours of the SMQ: work spreads from the seeding worker to
// the others by batch stealing, and consumption follows priority order
// closely — but not exactly, because bounded relaxation is what buys the
// scalability.
package main

import (
	"fmt"
	"sync/atomic"

	smq "repro"
)

// work stands in for a job's body: about twenty microseconds of
// arithmetic. Process pops jobs this coarse one at a time, so the
// seeding worker's queue stays open to thieves between any two of them.
func work(j int) {
	x := uint64(j) | 1
	for i := 0; i < 10000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Store(x)
}

var sink atomic.Uint64

func main() {
	const workers = 4
	const jobs = 20000

	s := smq.NewStealingMQ[int](smq.SMQConfig{Workers: workers})

	order := make([]uint64, jobs)
	perWorker := make([]int, workers)
	var slot atomic.Int64

	// Process seeds every job at worker 0 — SMQ inserts are always local
	// (queue affinity), so the other workers obtain work by stealing
	// batches whose tops beat their own queues — and runs one goroutine
	// per worker until no job is left anywhere. It owns the termination
	// protocol: a relaxed scheduler's failed Pop is NOT proof of global
	// emptiness, so it counts in-flight jobs instead. A job spawning
	// follow-on jobs would call pending.Inc(1) and w.Push for each.
	smq.Process(s,
		func(w smq.Worker[int]) {
			for j := 0; j < jobs; j++ {
				w.Push(uint64(j), j)
			}
		},
		func(wid int, _ smq.Worker[int], _ *smq.Pending, p uint64, j int) {
			order[slot.Add(1)-1] = p
			perWorker[wid]++
			work(j)
		})

	// How relaxed was the consumption order?
	sumDisplacement := 0.0
	maxDisplacement := 0
	for i, p := range order {
		d := int(p) - i
		if d < 0 {
			d = -d
		}
		sumDisplacement += float64(d)
		if d > maxDisplacement {
			maxDisplacement = d
		}
	}
	st := s.Stats()
	fmt.Printf("consumed %d jobs with %d workers: %v\n", len(order), workers, perWorker)
	fmt.Printf("steals: %d batches (%d tasks), %d failed probes\n",
		st.Steals, st.StolenTask, st.StealFails)
	fmt.Printf("mean rank displacement: %.1f positions (max %d of %d)\n",
		sumDisplacement/float64(len(order)), maxDisplacement, jobs)
	fmt.Println("\nbounded displacement while stealing spreads the work is the SMQ trade-off:")
	fmt.Println("strict priority order is relaxed slightly in exchange for local, almost")
	fmt.Println("synchronization-free queue access (see Theorem 1 in the paper).")
	fmt.Println("worker 0 seeded every job, so the other workers' counts are all stolen")
	fmt.Println("work. How much of it spreads is decided by the cores that really run the")
	fmt.Println("workers: a core per worker splits the jobs about evenly, two cores leave")
	fmt.Println("half with worker 0, and a single one nearly all of them.")
}
