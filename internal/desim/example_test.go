package desim_test

import (
	"fmt"

	smq "repro"
	"repro/internal/desim"
)

// Example looks a scheduler up by name through the public Spec API,
// simulates a small cluster with the causality window set to the
// scheduler's rank bound, and reads the order-independent results. Every value printed here is deterministic
// by construction — model outcomes do not depend on the scheduler, the
// worker count, or execution interleaving — so the output is pinned.
func Example() {
	const workers = 4
	spec, _ := smq.LookupSpec[desim.Event]("coarse")
	bound, exact := spec.RankBound(workers)

	model, err := desim.NewCluster(desim.ClusterConfig{
		Stations:           8,
		ArrivalsPerStation: 250,
		Workers:            workers,
		Seed:               7,
	})
	if err != nil {
		panic(err)
	}
	stats, err := desim.Run(spec.Make(workers, 7), model, desim.Config{
		Workers:   workers,
		Lookahead: bound,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("events=%d violations=%d bound=%d exact=%v\n",
		stats.Events, stats.Violations, bound, exact)
	t0 := model.PerTenant()[0]
	fmt.Printf("tenant 0: completed=%d p50=%d\n", t0.Completed, t0.P50)
	// Output:
	// events=4000 violations=0 bound=0 exact=true
	// tenant 0: completed=713 p50=28
}
