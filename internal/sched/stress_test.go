//go:build stress

// Elevated-iteration soaks of the zoo-wide conservation suites, run by
// CI's dedicated stress job (`go test -race -tags stress`) so the main
// test job stays fast. See .github/workflows/ci.yml.

package sched_test

import (
	"runtime"
	"testing"
)

// TestStressHoldConservation soaks the decremental hold pattern
// (pop-min + push-below-head, conserveHold) across the whole zoo at
// full parallelism. For the exact tiers this hammers the structural
// worst case — for CBPQ specifically, the elimination/combining layer
// under maximum push/pop collision — while the relaxed schedulers see
// a workload whose resident set constantly drifts upward.
func TestStressHoldConservation(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			conserveHold(t, tc.Build(workers, 0), workers, 2000, 20000)
		})
	}
}

// TestStressMixedConservation soaks the mixed scalar+batch conservation
// workload (exactly-once accounting) at stress sizes.
func TestStressMixedConservation(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, tc := range conformanceSchedulers() {
		t.Run(tc.Name, func(t *testing.T) {
			conserveMixed(t, tc.Build(workers, 0), workers, 12000)
		})
	}
}
