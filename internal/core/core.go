// Package core implements the paper's primary contribution: the Stealing
// Multi-Queue (SMQ), a cache-efficient relaxed concurrent priority
// scheduler with probabilistic rank guarantees (§2.2, §4, Theorem 1).
//
// # Design
//
// Each worker owns one thread-local priority queue. Insertions are always
// local (queue affinity). Deletions are usually local too, but with
// probability StealProb the worker compares the top of a randomly chosen
// victim queue against its own top and, if the victim's is better, steals
// a whole batch of StealSize tasks (task batching). The surplus of a
// stolen batch is kept in a worker-local buffer and consumed before any
// further queue access. Theorem 1 shows this process keeps the expected
// rank of removed tasks at O(nB(1+γ)/p_steal · log((1+γ)/p_steal)).
//
// The zero Config steals with p_steal = 1/32 and STEAL_SIZE = 16, a W = 2
// choice backed by a fig1 sweep on the two-core host this repository is
// measured on (results/fig1-w2), not the paper's (1/8, 4), which was
// chosen at 28–128 threads and stays settable. Both expect half a stolen
// task per delete; the W = 2 choice probes a victim a quarter as often
// and moves four times as many tasks per claimed batch. Theorem 1 charges
// the rarer probe to the rank bound: n·B·(1/p)·ln(1/p) grows 26.7-fold.
//
// Two local-queue implementations are provided, as in §4:
//
//   - NewStealingMQ: sequential exact queues with an attached stealing
//     buffer published through a single (epoch, released, claimed)
//     atomic word (Listing 4). The buffer holds the owner's current top
//     batch for thieves; the owner counts it among its own tasks and
//     takes it back, republishing the next batch, whenever its top beats
//     the local queue's.
//   - NewStealingMQSkipList: concurrent skip lists as local queues;
//     stealing is a batched DeleteMin on the victim's list.
//
// # The local queue
//
// The paper's heap variant keeps each worker's tasks in a d-ary heap.
// Theorem 1 and Listing 4's buffer protocol need the local queue only to
// be exact — every local pop returns the owner's minimum — and §4 tries
// skip lists as well. Here the local queue is a pq.BucketQueue: width-1
// buckets over a circular window of 4 096 consecutive priorities, each a
// LIFO list through one node pool, found through a two-level bitmap, with
// the paper's 4-ary heap behind the window for every task outside it.
// The fan-out is a constant (pq.DefaultArity): behind the window it only
// orders the spilled tasks, and bench's `hold -sched smq` did not tell
// d = 2, 4 and 8 apart (2 vCPUs, W = 2, 8 rotating rounds of 15 s:
// tasks_per_s.smq medians 68.1, 73.9 and 72.5 M/s, each arity's
// quartiles overlapping the others').
//
// A push or a pop inside the window is O(1), where the heap's sift-down
// made most of a pop once a worker held thousands of tasks: in pq's hold
// microbenchmark (BenchmarkLocalQueue_*, 2^10 to 2^16 resident) a pop +
// push pair costs 22–26 ns on the buckets and 53–106 ns on the 4-ary
// heap alone. Equal priorities pop newest first.
//
// The window follows the tasks: a push into an empty window places it
// there; a push below it slides it down while every bucketed task still
// fits, and otherwise goes to the heap, as does a push above it. A pop
// that finds the heap's minimum below the window slides the window down
// to it if the bucketed tasks fit; if not, and the window holds no more
// tasks than the heap, it moves the bucketed tasks into the heap and
// re-places the window at the heap's minimum; if not that either, the
// heap serves the pop. So an eviction moves at most as many tasks as the
// heap holds. Every pop still returns a minimum, so the buffer protocol
// and the rank bound are the paper's.
//
// # Memory-model note
//
// The paper's Listing 4 reads the steal buffer non-atomically and
// validates with an epoch afterwards (a seqlock). Under the Go memory
// model that read is a data race, so this implementation never reads the
// buffer's items optimistically: a claimant first wins the epoch with a
// CAS on the state word, copies the items out, and then stores a released
// bit, and the owner rewrites the array — in place, nothing is allocated
// per batch — only after loading that bit (or while holding the claim
// itself). Every plain access to the array is therefore ordered by the
// state word's atomics. What thieves do read optimistically, the batch's
// top priority, is an atomic word of its own, validated by re-reading the
// epoch. The protocol is otherwise the paper's: one claimant per epoch,
// owner refills only a buffer that has been taken. See heapQueue, and
// protocol_model_test.go for the enumeration of its interleavings.
package core

import (
	"fmt"
	"math"

	"repro/internal/contend"
	"repro/internal/numa"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// Config parameterizes both SMQ variants. The zero value of each field
// selects a default: the paper's, except the two steal knobs, whose
// defaults are the W = 2 choice of results/fig1-w2 (see the package doc).
// What no caller varies is fixed: an empty worker probes 2·Workers
// victims (stealTries), and pushes go straight into the local queue,
// with no insert buffer (see Push).
type Config struct {
	// Workers is the number of worker slots (and local queues). Required.
	Workers int
	// StealSize is the batch size for steals (STEAL_SIZE). Default 16,
	// the W = 2 sweep's choice; the paper's 28–128-thread default is 4.
	StealSize int
	// StealProb is p_steal, the probability that a delete first attempts
	// a steal. Default 1/32, the W = 2 sweep's choice; the paper's
	// 28–128-thread default is 1/8. Set negative for 0 (never steal
	// eagerly; stealing still happens when the local queue is empty).
	StealProb float64
	// Seed makes runs reproducible. Default derives per-worker seeds
	// from 1.
	Seed uint64
	// NUMANodes > 1 enables the virtual-NUMA weighted victim sampling of
	// §4 with weight divisor NUMAWeightK.
	NUMANodes int
	// NUMAWeightK is the remote-queue weight divisor K. Default 8 (the
	// paper's default configuration); only used when NUMANodes > 1.
	NUMAWeightK float64
}

// Validate reports whether the configuration can build a scheduler:
// Workers must be positive and every set field within its documented
// domain (zero values select defaults; a negative StealProb is the
// documented "never steal eagerly" setting). New panics with exactly
// this error on an invalid configuration, so callers that must not
// panic validate first.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: Config.Workers = %d, must be positive", c.Workers)
	}
	if c.StealSize < 0 {
		return fmt.Errorf("core: Config.StealSize = %d, must be >= 0", c.StealSize)
	}
	if !(c.StealProb <= 1) {
		return fmt.Errorf("core: Config.StealProb = %g, must be a probability <= 1", c.StealProb)
	}
	if c.NUMANodes < 0 {
		return fmt.Errorf("core: Config.NUMANodes = %d, must be >= 0", c.NUMANodes)
	}
	if !(c.NUMAWeightK >= 0) || math.IsInf(c.NUMAWeightK, 1) {
		return fmt.Errorf("core: Config.NUMAWeightK = %g, must be finite and >= 0", c.NUMAWeightK)
	}
	return nil
}

// WithDefaults returns a copy with every zero-valued field replaced by
// its documented default. Construction applies it after Validate. Over
// the five seeds of results/fig1-w2 (smqbench -exp fig1 -scale 4 -threads
// 2 -maxthreads 2 -reps 3), the steal defaults (1/32, 16) beat the
// paper's (1/8, 4) on median SSSP USA and A* USA time;
// harness.TestDefaultStealCitesItsSweep checks the SSSP USA half.
func (c Config) WithDefaults() Config {
	if c.StealSize == 0 {
		c.StealSize = 16
	}
	if c.StealProb == 0 {
		c.StealProb = 1.0 / 32
	}
	if c.StealProb < 0 {
		c.StealProb = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NUMAWeightK == 0 {
		c.NUMAWeightK = 8
	}
	return c
}

func (c *Config) normalize() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	*c = c.WithDefaults()
}

// stealTries is how many victims, per worker slot, a worker whose local
// queue and stolen surplus are empty probes before Pop reports failure:
// 2·Workers probes in all.
const stealTries = 2

// stealQueue is the contract between the generic SMQ worker logic and the
// two local-queue implementations.
type stealQueue[T any] interface {
	// PushLocal inserts a task. Owner only.
	PushLocal(p uint64, v T)
	// PushLocalBatch inserts the pairs ps[i]/vs[i] in index order, paying
	// the steal-buffer replenish check once for the batch. Owner only; the
	// slices are not retained.
	PushLocalBatch(ps []uint64, vs []T)
	// PopLocal removes the owner-visible best local task, which may be
	// one the queue has published for thieves. Owner only.
	PopLocal() (uint64, T, bool)
	// PopLocalBatch appends up to k owner-visible tasks to dst (priority
	// order, never more than k), published ones included. Owner only.
	PopLocalBatch(k int, dst []pq.Item[T]) []pq.Item[T]
	// TopLocal returns the owner's view of its best local priority.
	TopLocal() uint64
	// Top returns the priority visible to thieves (racy snapshot).
	Top() uint64
	// Steal attempts to take a batch, appending to dst. Any thread.
	Steal(dst []pq.Item[T]) []pq.Item[T]
}

// SMQ is the Stealing Multi-Queue scheduler. Construct with NewStealingMQ
// or NewStealingMQSkipList.
type SMQ[T any] struct {
	cfg Config
	// stealOn is whether deletes attempt steals at all: StealProb is
	// positive and there is a second worker, so trySteal has a victim.
	// gapScale is 1/ln(1-StealProb), the scale of stealGap's inversion.
	stealOn  bool
	gapScale float64
	topo     numa.Topology
	queues   []stealQueue[T]
	workers  []smqWorker[T]
	counters []sched.Counters
}

// smqWorker is the per-goroutine handle. The RNG and NUMA sampler are
// embedded by value: both mutate on every operation, and as separate
// heap allocations two workers' generators could share a cache line;
// inside the padded worker struct they cannot.
type smqWorker[T any] struct {
	s   *SMQ[T]
	id  int
	q   stealQueue[T]
	rng xrand.Rand
	smp numa.Sampler
	c   *sched.Counters

	// stolen holds surplus tasks from the last stolen batch, consumed
	// front to back (they arrive in ascending priority order).
	stolen    []pq.Item[T]
	stolenIdx int

	// gap counts the delete slots left before the next steal attempt.
	gap uint64

	// Workers sit in one contiguous slice and mutate stolenIdx and the
	// buffer headers on every operation; a trailing cache line keeps
	// those hot words off the neighbouring worker's line.
	_ [contend.CacheLineSize]byte
}

// NewStealingMQ builds the SMQ on sequential local queues (the paper's
// headline, heap-based variant, with the bucket window in front of each
// heap).
func NewStealingMQ[T any](cfg Config) *SMQ[T] {
	cfg.normalize()
	s := newSMQ[T](cfg)
	stealSize := cfg.StealSize
	if cfg.Workers == 1 {
		stealSize = 0 // no thief: publish nothing
	}
	for i := range s.queues {
		s.queues[i] = newHeapQueue[T](stealSize)
	}
	s.initWorkers()
	return s
}

// NewStealingMQSkipList builds the skip-list SMQ variant (§4, App. D).
func NewStealingMQSkipList[T any](cfg Config) *SMQ[T] {
	cfg.normalize()
	s := newSMQ[T](cfg)
	for i := range s.queues {
		s.queues[i] = newSkipQueue[T](cfg.Seed+uint64(i)*0x9e37, cfg.StealSize)
	}
	s.initWorkers()
	return s
}

func newSMQ[T any](cfg Config) *SMQ[T] {
	s := &SMQ[T]{
		cfg:      cfg,
		topo:     numa.New(cfg.Workers, max(cfg.NUMANodes, 1), 1),
		queues:   make([]stealQueue[T], cfg.Workers),
		workers:  make([]smqWorker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	if cfg.Workers > 1 && cfg.StealProb > 0 {
		s.stealOn = true
		s.gapScale = 1 / math.Log1p(-cfg.StealProb)
	}
	return s
}

// maxStealGap bounds a drawn gap, so that a tiny StealProb cannot
// overflow the conversion: 2^62 slots is never reached anyway.
const maxStealGap = 1 << 62

// stealGap draws the number of delete slots before the next steal
// attempt: the failures before the first success of Bernoulli(p) trials,
// Geometric(p) on {0, 1, ...}, by inversion, ⌊ln U / ln(1-p)⌋ with U
// uniform on (0, 1]. scale is 1/ln(1-p); p = 1 makes it -0 and every gap
// 0. One draw per steal attempt replaces one coin per delete slot.
func stealGap(r *xrand.Rand, scale float64) uint64 {
	u := float64(r.Uint64()>>11+1) * (1.0 / (1 << 53))
	g := math.Log(u) * scale
	if !(g < maxStealGap) { // NaN too: a subnormal p makes scale -Inf, and ln 1 · -Inf is NaN
		return maxStealGap
	}
	return uint64(g)
}

func (s *SMQ[T]) initWorkers() {
	k := 1.0
	if s.cfg.NUMANodes > 1 {
		k = s.cfg.NUMAWeightK
	}
	for i := range s.workers {
		w := &s.workers[i]
		w.s = s
		w.id = i
		w.q = s.queues[i]
		w.rng.Seed(s.cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)
		w.smp = *numa.NewSampler(s.topo, i, k, &w.rng)
		w.c = &s.counters[i]
		if s.stealOn {
			w.gap = stealGap(&w.rng, s.gapScale)
		}
	}
}

// Workers reports the number of worker slots.
func (s *SMQ[T]) Workers() int { return s.cfg.Workers }

// Worker returns the handle for worker w. Each handle must be used by a
// single goroutine.
func (s *SMQ[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("core: worker index %d out of range [0,%d)", w, len(s.workers)))
	}
	return &s.workers[w]
}

// Stats aggregates counters; call only after workers quiesce. Remote
// counts are collected from the NUMA samplers.
func (s *SMQ[T]) Stats() sched.Stats {
	for i := range s.workers {
		s.counters[i].Remote = s.workers[i].smp.Remote
	}
	return sched.SumCounters(s.counters)
}

// Push inserts into the worker's local queue (Listing 2: insert is always
// local — queue affinity is what makes the SMQ cache-friendly). There is
// no insert buffer in front of the queue: the worker loop already
// batches a task's children in sched.Sink and hands them over as one
// PushN.
func (w *smqWorker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	w.q.PushLocal(p, v)
}

// PushN inserts a whole batch into the local queue (insert affinity is
// unchanged — the batch just pays the queue bookkeeping once): the pairs
// go to the local queue as they arrive, in one PushLocalBatch.
func (w *smqWorker[T]) PushN(ps []uint64, vs []T) {
	sched.CheckPushN(len(ps), len(vs))
	if len(ps) == 0 {
		return
	}
	w.c.Pushes += uint64(len(ps))
	w.q.PushLocalBatch(ps, vs)
}

// Pop implements Listing 2's delete():
//  1. drain previously stolen surplus tasks;
//  2. with probability p_steal, try to steal a better batch;
//  3. otherwise (or if the steal found nothing better) take locally;
//  4. if the local queue is empty, fall back to stealing anything.
//
// Step 2's trial is the worker's countdown: a slot attempts a steal when
// gap has run out, and the attempt draws the next gap. A lone worker has
// no victim, so it draws nothing and scans none.
func (w *smqWorker[T]) Pop() (uint64, T, bool) {
	if w.stolenIdx < len(w.stolen) {
		it := w.stolen[w.stolenIdx]
		var zero pq.Item[T]
		w.stolen[w.stolenIdx] = zero
		w.stolenIdx++
		w.c.Pops++
		return it.P, it.V, true
	}
	if w.s.stealOn {
		if w.gap > 0 {
			w.gap--
		} else {
			w.gap = stealGap(&w.rng, w.s.gapScale)
			if p, v, ok := w.trySteal(); ok {
				w.c.Pops++
				return p, v, true
			}
		}
	}
	if p, v, ok := w.q.PopLocal(); ok {
		w.c.Pops++
		return p, v, true
	}
	// Local queue exhausted: scan for any victim with work.
	if w.s.cfg.Workers > 1 {
		for range stealTries * w.s.cfg.Workers {
			if p, v, ok := w.stealFrom(w.randomVictim(), false); ok {
				w.c.Pops++
				return p, v, true
			}
		}
	}
	w.c.EmptyPops++
	var zero T
	return pq.InfPriority, zero, false
}

// PopN is the batched delete: previously stolen surplus is drained in
// one copy, the local queue through a single PopLocalBatch, which
// merges in the worker's own published batch and republishes once, and
// only when all of that comes up empty does the scalar fallback victim
// scan run.
//
// Steal attempts keep the SCALAR rate: every delete slot not served
// from surplus counts down the worker's gap, and the slot where it runs
// out attempts a steal, stopping at the first success (whose stolen
// batch then fills the following slots, exactly as the scalar loop's
// surplus does). A gap drawn from Geometric(p_steal) makes that one
// Bernoulli(p_steal) trial per slot, with one draw per attempt instead
// of one per slot. Attempting once per batch instead would cut the steal
// rate by the batch size, and the steal comparison is the only mechanism
// pulling a worker off a locally-good but globally-stale frontier —
// measured on road-graph SSSP, a batch-level coin doubles the wasted
// work while the per-slot rate stays within a few percent of the scalar
// driver. A lone worker draws nothing.
func (w *smqWorker[T]) PopN(dst []sched.Task[T]) int {
	if len(dst) == 0 {
		return 0
	}
	n := w.drainStolen(dst, 0)
	if left := uint64(len(dst) - n); left > 0 && w.s.stealOn {
		for left > w.gap {
			left -= w.gap + 1
			w.gap = stealGap(&w.rng, w.s.gapScale)
			if p, v, ok := w.trySteal(); ok {
				dst[n] = pq.Item[T]{P: p, V: v}
				n = w.drainStolen(dst, n+1)
				left = 0 // surplus serves the remaining slots
				break
			}
			// Failed probe (victim's top not better): that slot is
			// served locally, and the later slots keep counting down,
			// as in the scalar loop.
		}
		w.gap -= left
	}
	if n < len(dst) {
		n = len(w.q.PopLocalBatch(len(dst)-n, dst[:n]))
	}
	if n == 0 && w.s.cfg.Workers > 1 {
		for range stealTries * w.s.cfg.Workers {
			if p, v, ok := w.stealFrom(w.randomVictim(), false); ok {
				dst[0] = pq.Item[T]{P: p, V: v}
				n = w.drainStolen(dst, 1)
				break
			}
		}
	}
	if n > 0 {
		w.c.Pops += uint64(n)
	} else {
		w.c.EmptyPops++
	}
	return n
}

// drainStolen copies stolen-surplus tasks into dst[n:], zeroing the
// vacated buffer slots, and returns the new fill count.
func (w *smqWorker[T]) drainStolen(dst []pq.Item[T], n int) int {
	if w.stolenIdx < len(w.stolen) {
		k := copy(dst[n:], w.stolen[w.stolenIdx:])
		clear(w.stolen[w.stolenIdx : w.stolenIdx+k])
		w.stolenIdx += k
		n += k
	}
	return n
}

// randomVictim samples a victim queue (NUMA-weighted when configured),
// excluding the worker's own queue. Only a worker with a neighbour calls
// it.
func (w *smqWorker[T]) randomVictim() int {
	return w.smp.SampleOther(w.id)
}

// trySteal is Listing 2's trySteal(): probe one random victim and take a
// batch only if its visible top beats the local top.
func (w *smqWorker[T]) trySteal() (uint64, T, bool) {
	return w.stealFrom(w.randomVictim(), true)
}

// stealFrom takes a batch from victim, another worker's queue
// (randomVictim never draws the caller's own). When compare is set, the
// steal only proceeds if the victim's top is strictly better than the
// local top (the two-choice discipline that drives the rank guarantee).
func (w *smqWorker[T]) stealFrom(victim int, compare bool) (uint64, T, bool) {
	vq := w.s.queues[victim]
	if compare && vq.Top() >= w.q.TopLocal() {
		w.c.StealFails++
		return 0, *new(T), false
	}
	w.stolen = vq.Steal(w.stolen[:0]) // reuse backing array
	w.stolenIdx = 0
	if len(w.stolen) == 0 {
		w.c.StealFails++
		return 0, *new(T), false
	}
	w.c.Steals++
	w.c.StolenTask += uint64(len(w.stolen))
	it := w.stolen[0]
	w.stolenIdx = 1
	return it.P, it.V, true
}
