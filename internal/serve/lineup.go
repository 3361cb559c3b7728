package serve

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/zoo"
)

// Build constructs the named scheduler for w worker slots, instantiated
// at the Request payload. The factory itself lives in internal/zoo;
// this wrapper only translates a miss into a serve-flavoured error.
func Build(name string, workers int, seed uint64) (sched.Scheduler[Request], error) {
	spec, ok := zoo.Lookup[Request](name)
	if !ok {
		return nil, fmt.Errorf("serve: unknown scheduler %q (known: %v)", name, zoo.Names())
	}
	return spec.Make(workers, seed), nil
}
