// Package algos implements the paper's benchmark workloads (§5) as
// scheduler-driven parallel algorithms — SSSP, BFS, A*, Boruvka MST — and
// a residual PageRank extension, plus the sequential baselines used for
// speedup and wasted-work accounting.
//
// All parallel algorithms follow the same shape: tasks carry a priority
// (lower = sooner) and a vertex payload; workers loop popping tasks from
// a relaxed scheduler, perform the algorithm step, and push follow-on
// tasks. Because the schedulers are relaxed, a popped task may be stale —
// superseded by a better value written concurrently. Stale pops are
// counted as wasted work, which is exactly the metric the paper uses to
// explain scheduler quality differences ("work increase").
//
// Termination uses a global in-flight counter (sched.Pending): a Pop
// failure is never treated as completion on its own, because tasks may be
// buried in other workers' local buffers.
//
// Per-vertex shared state that the workers update with atomics (the
// distances of SSSP, BFS and A*) is one plain slice: it is filled with
// plain stores before sched.Run starts the workers, whose go statements
// order those stores before every worker's first access, and it is
// returned as it is after Run returns. There is no Store loop before the
// run and no copy pass after it: both would run on one core, outside
// Result.Duration, and show only in the caller's time of the whole call.
package algos

import (
	"time"

	"repro/internal/sched"
)

// Result captures a parallel run's cost accounting.
type Result struct {
	// Tasks is the number of tasks processed (useful + wasted).
	Tasks uint64
	// Wasted is the number of stale tasks (popped but superseded).
	Wasted uint64
	// Duration is the wall-clock time of the parallel phase: the worker
	// loop only, not the set-up before it or the hand-back after it.
	// Callers that want time to solution time the whole call.
	Duration time.Duration
	// Sched holds the scheduler's own counters for the run.
	Sched sched.Stats
}

// WorkIncrease is the paper's wasted-work metric: tasks executed divided
// by the baseline task count (typically the sequential algorithm's).
func (r Result) WorkIncrease(baselineTasks uint64) float64 {
	if baselineTasks == 0 {
		return 0
	}
	return float64(r.Tasks) / float64(baselineTasks)
}

// driveBatch is the drivers' pop-batch capacity (see sched.Run for the
// rank trade): 8 matches the scale of the schedulers' own relaxation
// units (steal size 4, operation buffers 8..16), keeping measured work
// increase within a few percent of a scalar driver while still
// amortizing the fixed costs 8-fold.
const driveBatch = 8

// drive runs process over every task to completion on all of s's
// workers through sched.Run, which owns the Pending accounting:
// workloads register their seeds, then just emit follow-ons into the
// sink and report whether the popped task was stale. The open-loop
// counterpart, where ingestion keeps the stream open and workers park
// instead of exiting, is internal/serve.
func drive[T any](s sched.Scheduler[T], pending *sched.Pending, process sched.Body[T]) (tasks, wasted uint64, elapsed time.Duration) {
	return sched.Run(s, pending, s.Workers(), driveBatch, process)
}
