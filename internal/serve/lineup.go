package serve

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/zoo"
)

// Lineup returns the scheduler names Build understands — the serving
// benchmark's historical default selection of the zoo registry, in zoo
// order (the lock-free cbpq rides directly after the coarse exact
// baseline). Build accepts any zoo name, including ones outside this
// default slate.
func Lineup() []string {
	return []string{"coarse", "cbpq", "mq", "mq-batch", "emq", "smq", "klsm", "obim", "spray"}
}

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
