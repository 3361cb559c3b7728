// Package spray implements the SprayList scheduler of Alistarh, Kopinsky,
// Li and Shavit [6], one of the relaxed priority queues the paper
// benchmarks against (§5).
//
// The SprayList is a single shared concurrent skip list whose deleteMin
// is replaced by a "spray": a random descent with bounded forward jumps
// that lands, with high probability, on one of the first O(p·polylog p)
// elements. All p threads share the one structure — there is no queue
// affinity — so the SprayList trades cache locality for a tight rank
// bound, which is exactly the trade-off the SMQ's evaluation explores.
package spray

import (
	"fmt"

	"repro/internal/contend"
	"repro/internal/cskiplist"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// Config parameterizes the SprayList. The spray walk is the paper's
// recommendation for the worker count (cskiplist.DefaultSprayParams).
type Config struct {
	// Workers is the number of worker slots. Required.
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
}

// Sched is the SprayList scheduler.
type Sched[T any] struct {
	cfg      Config
	params   cskiplist.SprayParams // DefaultSprayParams(Workers)
	list     *cskiplist.SkipList[T]
	workers  []contend.Padded[worker[T]]
	counters []sched.Counters
}

// worker embeds its RNG by value: the spray walk draws from it on every
// descent step, and separately heap-allocated generators of adjacent
// workers could share a cache line. The workers slice wraps each handle
// in contend.Padded so neighbours cannot share one either.
type worker[T any] struct {
	s   *Sched[T]
	rng xrand.Rand
	c   *sched.Counters
}

// Validate reports whether the configuration can build a scheduler:
// Workers must be positive. New panics with exactly this error on an
// invalid configuration, so callers that must not panic validate first.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("spray: Config.Workers = %d, must be positive", c.Workers)
	}
	return nil
}

// WithDefaults returns a copy with the zero Seed replaced by 1.
// Construction applies it after Validate.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// New builds a SprayList scheduler.
func New[T any](cfg Config) *Sched[T] {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.WithDefaults()
	s := &Sched[T]{
		cfg:      cfg,
		params:   cskiplist.DefaultSprayParams(cfg.Workers),
		list:     cskiplist.New[T](cfg.Seed),
		workers:  make([]contend.Padded[worker[T]], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	for i := range s.workers {
		w := &s.workers[i].Value
		w.s = s
		w.rng.Seed(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)
		w.c = &s.counters[i]
	}
	return s
}

// Workers reports the number of worker slots.
func (s *Sched[T]) Workers() int { return s.cfg.Workers }

// Worker returns the handle for worker w.
func (s *Sched[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("spray: worker index %d out of range [0,%d)", w, len(s.workers)))
	}
	return &s.workers[w].Value
}

// Stats aggregates counters; call only after workers quiesce.
func (s *Sched[T]) Stats() sched.Stats { return sched.SumCounters(s.counters) }

// Len reports the approximate number of queued tasks.
func (s *Sched[T]) Len() int { return s.list.Len() }

// Push inserts into the shared skip list.
func (w *worker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	w.s.list.Insert(p, v)
}

// PushN / PopN use the generic scalar fallbacks: the SprayList has no
// per-operation lock or sampling step to amortize — every insert and
// spray walks the one shared structure regardless of batching.
func (w *worker[T]) PushN(ps []uint64, vs []T) { sched.PushNLoop[T](w, ps, vs) }

func (w *worker[T]) PopN(dst []sched.Task[T]) int { return sched.PopNLoop[T](w, dst) }

// Pop sprays a near-minimal element from the shared skip list.
func (w *worker[T]) Pop() (uint64, T, bool) {
	p, v, ok := w.s.list.Spray(w.s.params, &w.rng)
	if ok {
		w.c.Pops++
	} else {
		w.c.EmptyPops++
		p = pq.InfPriority
	}
	return p, v, ok
}
