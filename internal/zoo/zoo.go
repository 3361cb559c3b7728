// Package zoo is the one place that turns a scheduler configuration
// into a labelled, buildable Spec. One builder per family (SMQ, SMQSkip,
// MQ, KLSM, OBIM, CBPQ, Spray, Coarse) derives the Params label and
// the rank bound from the defaults-applied configuration the scheduler
// will actually run, so a report row can never name a configuration
// other than the one behind it. Lineup is the canonical registry built
// from those builders — the source of truth behind the root package's
// Spec/Lineup/LookupSpec API, the repo benchmark, internal/serve and
// internal/desim — and internal/harness builds its named variants and
// ablation grids, and the conformance suites their non-default cases,
// through the same builders.
//
// Specs are generic in the task payload type: Lineup[T]() instantiates
// the whole registry at payload T, so the graph algorithms (uint32),
// the serving front-end (serve.Request) and the discrete-event
// simulator (desim.Event) share one registry without a conversion
// layer.
package zoo

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cbpq"
	"repro/internal/coarse"
	"repro/internal/core"
	"repro/internal/cskiplist"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/ranksim"
	"repro/internal/sched"
	"repro/internal/spray"
)

// Spec is a named scheduler factory with its relaxation contract.
type Spec[T any] struct {
	// Name is the registry key ("smq", "klsm", ...) or a variant's name.
	Name string
	// Params summarizes the effective configuration for reports.
	Params string
	// Make builds the scheduler. Seed 0 selects the scheduler's default
	// seeding; schedulers without a seed knob ignore it.
	Make func(workers int, seed uint64) sched.Scheduler[T]
	// Bound, when set, computes the spec's rank-error bound; access it
	// through the RankBound method, which handles specs that leave it
	// nil because no usable bound exists.
	Bound func(workers int) (bound int64, exact bool)
}

// Build constructs the scheduler by calling Make; it adds nothing, and a
// zero Spec panics in either. It remains because the repo benchmark in
// bench/ calls it.
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

// Lineup instantiates the full registry at payload type T, in report
// order: the exact baselines first, then the Multi-Queue family, the
// SMQ variants, and the non-Multi-Queue relaxed baselines. Every
// configuration is the respective paper's default.
func Lineup[T any]() []Spec[T] {
	return []Spec[T]{
		Coarse[T]("coarse", coarse.Config{}),
		CBPQ[T]("cbpq", cbpq.Config{}),
		// An alias of cbpq, kept because BENCHMARK.json pins the name.
		CBPQ[T]("cbpq-elim", cbpq.Config{}),
		MQ[T]("mq", mq.Classic(0, 4)),
		MQ[T]("mq-batch", mq.Config{C: 4, Insert: mq.InsertBatch, Delete: mq.DeleteBatch}),
		MQ[T]("emq", mq.Engineered(0)),
		SMQ[T]("smq", core.Config{}),
		SMQSkip[T]("smq-skip", core.Config{}),
		MQ[T]("reld", mq.RELD(0)),
		KLSM[T]("klsm", klsm.Config{}),
		OBIM[T]("obim", obim.Config{}),
		OBIM[T]("pmod", obim.Config{Adaptive: true}),
		Spray[T]("spray", spray.Config{}),
	}
}

// The family builders below share one contract: cfg's Workers and Seed
// are ignored (Make fills them in per build), Params and Bound are read
// off cfg.WithDefaults() — the configuration the constructor will run —
// and every knob some lineup, variant or ablation grid of this
// repository varies appears in the label.

// SMQ labels and builds a heap Stealing Multi-Queue.
func SMQ[T any](name string, cfg core.Config) Spec[T] {
	return stealing(name, cfg, core.NewStealingMQ[T])
}

// SMQSkip labels and builds a skip-list Stealing Multi-Queue.
func SMQSkip[T any](name string, cfg core.Config) Spec[T] {
	return stealing(name, cfg, core.NewStealingMQSkipList[T])
}

func stealing[T any](name string, cfg core.Config, build func(core.Config) *core.SMQ[T]) Spec[T] {
	c := cfg.WithDefaults()
	params := fmt.Sprintf("steal=%d psteal=%.3g", c.StealSize, c.StealProb)
	if c.InsertBatch > 1 {
		params += fmt.Sprintf(" insbatch=%d", c.InsertBatch)
	}
	return Spec[T]{
		Name: name, Params: params + numaLabel(c.NUMANodes, c.NUMAWeightK),
		Make: func(w int, seed uint64) sched.Scheduler[T] {
			cfg := cfg
			cfg.Workers, cfg.Seed = w, seed
			return build(cfg)
		},
		Bound: expectationBound(1, c.StealSize, c.StealProb),
	}
}

// MQ labels and builds a member of the Multi-Queue family (classic,
// temporal-locality, batching, RELD, engineered).
func MQ[T any](name string, cfg mq.Config) Spec[T] {
	c := cfg.WithDefaults()
	params := fmt.Sprintf("C=%d", c.C)
	if c.Insert == mq.InsertBatch {
		params += fmt.Sprintf(" ins=batch%d", c.BatchInsert)
	} else if c.PInsertChange < 1 {
		params += fmt.Sprintf(" ins=tl%.3g", c.PInsertChange)
	}
	// A temporal-locality delete is the SMQ process's delete with
	// p_steal = PDeleteChange (1 = the classic fresh two-choice); a
	// batched delete is a fresh two-choice removing BatchDelete tasks.
	bound := expectationBound(c.C, 1, c.PDeleteChange)
	switch c.Delete {
	case mq.DeleteBatch:
		params += fmt.Sprintf(" del=batch%d", c.BatchDelete)
		bound = expectationBound(c.C, c.BatchDelete, 1)
	case mq.DeleteLocal:
		params += " del=local"
		// Local dequeue lets one worker dwell on its own queue for
		// arbitrarily long: no rank bound exists.
		bound = nil
	default:
		if c.PDeleteChange < 1 {
			params += fmt.Sprintf(" del=tl%.3g", c.PDeleteChange)
		}
	}
	if c.PeekTops {
		params += " peektops"
	}
	if c.Stickiness > 0 {
		// The engineered MultiQueue, labelled in Williams et al.'s terms.
		params = fmt.Sprintf("C=%d stick=%d buf=%d/%d", c.C, c.Stickiness, c.BatchInsert, c.BatchDelete)
	}
	return Spec[T]{
		Name: name, Params: params + numaLabel(c.NUMANodes, c.NUMAWeightK),
		Make: func(w int, seed uint64) sched.Scheduler[T] {
			cfg := cfg
			cfg.Workers, cfg.Seed = w, seed
			return mq.New[T](cfg)
		},
		Bound: bound,
	}
}

// KLSM labels and builds a k-LSM.
func KLSM[T any](name string, cfg klsm.Config) Spec[T] {
	k := cfg.WithDefaults().Relaxation
	return Spec[T]{
		Name: name, Params: fmt.Sprintf("k=%d", k),
		Make: func(w int, _ uint64) sched.Scheduler[T] {
			cfg := cfg
			cfg.Workers = w
			return klsm.New[T](cfg)
		},
		// Wimmer et al.'s worst case: every other worker may hide up to
		// k better tasks in its local LSM, plus one in-flight task per
		// worker — (P−1)·k + P.
		Bound: func(w int) (int64, bool) { return int64(w-1)*int64(k) + int64(w), true },
	}
}

// OBIM labels and builds OBIM, or PMOD when cfg.Adaptive is set. It has
// no Bound: priority coarsening (bucket = p >> Δ) is unbounded in rank
// terms, a bucket may hold arbitrarily many better tasks.
func OBIM[T any](name string, cfg obim.Config) Spec[T] {
	c := cfg.WithDefaults()
	params := fmt.Sprintf("delta=%d chunk=%d", c.Delta, c.ChunkSize)
	if c.Adaptive {
		params += " adaptive"
	}
	if c.NUMANodes > 1 {
		params += fmt.Sprintf(" numa=%d", c.NUMANodes)
	}
	return Spec[T]{
		Name: name, Params: params,
		Make: func(w int, seed uint64) sched.Scheduler[T] {
			cfg := cfg
			cfg.Workers, cfg.Seed = w, seed
			return obim.New[T](cfg)
		},
	}
}

// CBPQ labels and builds the lock-free chunk-based priority queue.
func CBPQ[T any](name string, cfg cbpq.Config) Spec[T] {
	return Spec[T]{
		Name: name, Params: fmt.Sprintf("chunk=%d combining", cfg.WithDefaults().ChunkCap),
		Make: func(w int, _ uint64) sched.Scheduler[T] {
			cfg := cfg
			cfg.Workers = w
			return cbpq.New[T](cfg)
		},
		// Linearizable-exact like the coarse baseline at every chunk
		// capacity: a head claim linearizes only if the head's publish
		// counter shows no below-head insert since the pop read buf's
		// minimum.
		Bound: exactBound,
	}
}

// Spray labels and builds a SprayList. Zero spray parameters are
// resolved from the worker count at build time, so they are labelled
// "auto" rather than with numbers no build is guaranteed to use.
func Spray[T any](name string, cfg spray.Config) Spec[T] {
	params := "spray=auto"
	if p := cfg.Params; p != (cskiplist.SprayParams{}) {
		params = fmt.Sprintf("height=%d jump=%d descend=%d retries=%d", p.Height, p.JumpLen, p.Descend, p.MaxRetries)
	}
	return Spec[T]{
		Name: name, Params: params,
		Make: func(w int, seed uint64) sched.Scheduler[T] {
			cfg := cfg
			cfg.Workers, cfg.Seed = w, seed
			return spray.New[T](cfg)
		},
		// Alistarh et al.: sprays land within O(p·log³p) of the head
		// with high probability.
		Bound: func(w int) (int64, bool) {
			lg := int64(bits.Len(uint(w))) // ⌈log2 w⌉+1 for w>0
			return int64(w) * lg * lg * lg, false
		},
	}
}

// Coarse labels and builds the coarse-locked global heap.
func Coarse[T any](name string, cfg coarse.Config) Spec[T] {
	return Spec[T]{
		Name: name, Params: fmt.Sprintf("single global heap d=%d", cfg.WithDefaults().HeapArity),
		Make: func(w int, _ uint64) sched.Scheduler[T] {
			cfg := cfg
			cfg.Workers = w
			return coarse.New[T](cfg)
		},
		Bound: exactBound,
	}
}

// numaLabel is the label suffix of the virtual-NUMA weighted sampling
// knobs shared by the Multi-Queue families; empty when sampling is off.
func numaLabel(nodes int, k float64) string {
	if nodes <= 1 {
		return ""
	}
	return fmt.Sprintf(" numa=%d K=%g", nodes, k)
}

// exactBound is the rank bound of a strict priority queue.
func exactBound(int) (int64, bool) { return 0, true }

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
