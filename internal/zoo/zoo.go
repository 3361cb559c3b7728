// Package zoo is the canonical named-scheduler registry: one Spec per
// scheduler of the repository's zoo, carrying the human-readable name,
// the default configuration as a factory, and a machine-readable rank
// bound. It is the single source of truth behind the root package's
// Spec/Lineup/LookupSpec API; internal/perfbench, internal/serve,
// internal/harness and internal/desim all build schedulers through it,
// so the zoo's name→factory mapping exists exactly once.
//
// Specs are generic in the task payload type: Lineup[T]() instantiates
// the whole registry at payload T, so the microbenchmark (int), the
// graph algorithms (uint32), the serving front-end (serve.Request) and
// the discrete-event simulator (desim.Event) share one registry without
// a conversion layer.
package zoo

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cbpq"
	"repro/internal/coarse"
	"repro/internal/core"
	"repro/internal/emq"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/ranksim"
	"repro/internal/sched"
	"repro/internal/spray"
)

// Spec is a named scheduler factory with its relaxation contract.
type Spec[T any] struct {
	// Name is the registry key ("smq", "klsm", ...).
	Name string
	// Params summarizes the spec's fixed configuration for reports.
	Params string
	// Constructor names the root-package constructor this spec wraps
	// ("" for the coarse strawman, which has none); cmd/zoogate checks
	// that every root constructor appears here.
	Constructor string
	// Make builds the scheduler. Seed 0 selects the scheduler's default
	// seeding; schedulers without a seed knob ignore it.
	Make func(workers int, seed uint64) sched.Scheduler[T]
	// Bound, when set, computes the spec's rank-error bound; access it
	// through the RankBound method, which handles ad-hoc specs that
	// leave it nil.
	Bound func(workers int) (bound int64, exact bool)
}

// Build constructs the scheduler (nil-safe alias for Make kept for the
// harness call sites that predate the unified signature).
func (s Spec[T]) Build(workers int, seed uint64) sched.Scheduler[T] {
	return s.Make(workers, seed)
}

// RankBound reports the scheduler's rank-error bound for the given
// worker count: the maximum (exact = true) or expected-scale
// (exact = false) number of queued tasks with strictly better priority
// that one Pop may skip. A negative bound means the spec offers no
// usable bound (OBIM's priority coarsening, RELD's local dequeues).
// This is the quantity a discrete-event simulation must cover with its
// lookahead window for relaxed pops to be safe (see internal/desim).
func (s Spec[T]) RankBound(workers int) (bound int64, exact bool) {
	if s.Bound == nil {
		return -1, false
	}
	return s.Bound(workers)
}

// Names returns the registry's scheduler names in lineup order.
func Names() []string {
	names := make([]string, 0, 12)
	for _, s := range Lineup[struct{}]() {
		names = append(names, s.Name)
	}
	return names
}

// Lookup finds a spec by name at payload type T.
func Lookup[T any](name string) (Spec[T], bool) {
	for _, s := range Lineup[T]() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec[T]{}, false
}

// Constructors maps every registered spec name to the root-package
// constructor it wraps ("" for specs without one). cmd/zoogate diffs it
// against the constructors the root package actually exports, so a new
// scheduler cannot land without a registry entry.
func Constructors() map[string]string {
	out := make(map[string]string, 12)
	for _, s := range Lineup[struct{}]() {
		out[s.Name] = s.Constructor
	}
	return out
}

// cbpqParams labels the default-configured lock-free tier; the chunk
// capacity is read from the constant it runs with.
var cbpqParams = fmt.Sprintf("chunk=%d lock-free", cbpq.DefaultChunkCap)

// Lineup instantiates the full registry at payload type T, in report
// order: the exact baseline first, then the Multi-Queue family, the
// SMQ variants, and the non-Multi-Queue relaxed baselines. Every
// configuration is the respective paper's default — the same ones the
// harness experiments and the perfbench lineup use.
func Lineup[T any]() []Spec[T] {
	return []Spec[T]{
		{
			Name: "coarse", Params: "single global heap",
			Make: func(w int, _ uint64) sched.Scheduler[T] {
				return coarse.New[T](coarse.Config{Workers: w})
			},
			Bound: func(int) (int64, bool) { return 0, true },
		},
		{
			Name: "cbpq", Params: cbpqParams, Constructor: "NewCBPQ",
			Make: func(w int, _ uint64) sched.Scheduler[T] {
				return cbpq.New[T](cbpq.Config{Workers: w})
			},
			// Linearizable-exact like the coarse baseline, but
			// non-blocking: the lock-free tier's rank bound is 0.
			// The elimination + combining layer is on by default (it is
			// part of what makes the tier usable), so this spec and
			// cbpq-elim coincide; the layer's absence is what
			// DisableElimination reconstructs for A/B runs.
			Bound: func(int) (int64, bool) { return 0, true },
		},
		{
			Name: "cbpq-elim", Params: cbpqParams + " elim+combining", Constructor: "NewCBPQ",
			Make: func(w int, _ uint64) sched.Scheduler[T] {
				return cbpq.New[T](cbpq.Config{Workers: w})
			},
			// Names the layered configuration explicitly so experiment
			// specs and benchcheck diffs can pin "CBPQ with the
			// elimination + combining layer" even if the bare cbpq
			// default ever changes. Elimination preserves exactness: an
			// exchange take linearizes only after validating the head's
			// publish counter, so the rank bound stays 0.
			Bound: func(int) (int64, bool) { return 0, true },
		},
		{
			Name: "mq", Params: "C=4", Constructor: "NewClassicMultiQueue",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				c := mq.Classic(w, 4)
				c.Seed = seed
				return mq.New[T](c)
			},
			Bound: expectationBound(4, 1, 1),
		},
		{
			Name: "mq-batch", Params: "C=4 ins=batch8 del=batch8", Constructor: "NewMultiQueue",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				return mq.New[T](mq.Config{Workers: w, C: 4,
					Insert: mq.InsertBatch, Delete: mq.DeleteBatch, Seed: seed})
			},
			Bound: expectationBound(4, 8, 1),
		},
		{
			Name: "emq", Params: "C=2 stick=16 buf=16", Constructor: "NewEngineeredMQ",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				return emq.New[T](emq.Config{Workers: w, Seed: seed})
			},
			// The buffered refills behave like a batched two-choice
			// process over m = 2·workers queues with batch = the
			// delete-buffer capacity.
			Bound: expectationBound(2, 16, 1),
		},
		{
			Name: "smq", Params: "steal=4 psteal=1/8", Constructor: "NewStealingMQ",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				return core.NewStealingMQ[T](core.Config{Workers: w, Seed: seed})
			},
			Bound: expectationBound(1, 4, 1.0/8),
		},
		{
			Name: "smq-skip", Params: "steal=4 psteal=1/8", Constructor: "NewStealingMQSkipList",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				return core.NewStealingMQSkipList[T](core.Config{Workers: w, Seed: seed})
			},
			Bound: expectationBound(1, 4, 1.0/8),
		},
		{
			Name: "reld", Params: "local dequeue", Constructor: "NewRELD",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				c := mq.RELD(w)
				c.Seed = seed
				return mq.New[T](c)
			},
			// Local dequeue lets one worker dwell on its own queue for
			// arbitrarily long: no rank bound exists.
			Bound: func(int) (int64, bool) { return -1, false },
		},
		{
			Name: "klsm", Params: "k=256", Constructor: "NewKLSM",
			Make: func(w int, _ uint64) sched.Scheduler[T] {
				return klsm.New[T](klsm.Config{Workers: w})
			},
			// Wimmer et al.'s worst case: every other worker may hide up
			// to k better tasks in its local LSM, plus one in-flight task
			// per worker — (P−1)·k + P.
			Bound: func(w int) (int64, bool) {
				return int64(w-1)*int64(klsm.DefaultRelaxation) + int64(w), true
			},
		},
		{
			Name: "obim", Params: "delta=10 chunk=64", Constructor: "NewOBIM",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				return obim.New[T](obim.Config{Workers: w, Seed: seed})
			},
			// Priority coarsening (bucket = p >> Δ) is unbounded in rank
			// terms: a bucket may hold arbitrarily many better tasks.
			Bound: func(int) (int64, bool) { return -1, false },
		},
		{
			Name: "pmod", Params: "delta=10 chunk=64 adaptive", Constructor: "NewPMOD",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				return obim.New[T](obim.Config{Workers: w, Adaptive: true, Seed: seed})
			},
			Bound: func(int) (int64, bool) { return -1, false },
		},
		{
			Name: "spray", Params: "default spray", Constructor: "NewSprayList",
			Make: func(w int, seed uint64) sched.Scheduler[T] {
				return spray.New[T](spray.Config{Workers: w, Seed: seed})
			},
			// Alistarh et al.: sprays land within O(p·log³p) of the head
			// with high probability.
			Bound: func(w int) (int64, bool) {
				lg := int64(bits.Len(uint(w))) // ⌈log2 w⌉+1 for w>0
				return int64(w) * lg * lg * lg, false
			},
		},
	}
}

// expectationBound adapts Theorem 1's expected-rank scaling (evaluated
// by internal/ranksim.TheoremBound) into a Spec.Bound: the scheduler
// behaves like the SMQ process over m = c·workers queues with the given
// batch size and steal probability (p_steal = 1 models the classic
// fresh-two-choice delete). The result is an expectation-scale
// estimate, never an exact guarantee.
func expectationBound(c, batch int, stealProb float64) func(int) (int64, bool) {
	return func(w int) (int64, bool) {
		return int64(math.Ceil(ranksim.TheoremBound(c*w, batch, stealProb, 0))), false
	}
}
