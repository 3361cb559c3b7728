// Package mq implements the classic Multi-Queue scheduler (§2.1,
// Listing 1), the paper's two optimisations — task batching and
// temporal locality (§2.1, Appendix C) — in all four insert×delete
// combinations, the RELD (random-enqueue local-dequeue) baseline from
// Jeffrey et al. [14], and the engineered MultiQueue of Williams, Sanders
// and Dementiev (below).
//
// The classic Multi-Queue keeps m = C·T sequential heaps, each behind a
// try-lock. insert picks a uniformly random queue; delete picks two
// distinct random queues and removes the better top ("power of two
// choices"), which is what yields the O(m) expected rank bound of
// Alistarh et al.
//
// Temporal locality (policy *TemporalLocality) reuses the previous
// operation's queue and only re-randomizes with a configured probability;
// the classic behaviour is the p=1 special case. Task batching (policy
// *Batch) moves whole batches through a thread-local buffer, trading rank
// for synchronization. Both match Appendix C's parameter grids.
//
// There is one delete path, PopN; Pop is PopN of one. Under DeleteBatch
// the thread-local delete buffer is the unit of extraction for both: a
// dry buffer is refilled with BatchDelete tasks (fewer only if the winner
// holds fewer) from a two-choice winner and the caller is served from it,
// whatever size it asked for.
// Without a delete buffer PopN extracts the caller's count from one
// winner straight into the caller's slice.
//
// # Engineered MultiQueue
//
// Williams, Sanders and Dementiev, "Engineering MultiQueues: Fast Relaxed
// Concurrent Priority Queues" (2021), add two ideas to the Multi-Queue of
// Rihani, Sanders and Dementiev. Their operation buffers are the
// InsertBatch and DeleteBatch policies; their queue stickiness is
// Config.Stickiness. With Stickiness s > 0 a worker holds a sticky pair
// of queues for s operations, pushes and pops counted together: the
// insert buffer flushes into a random member of the pair, and a delete
// refill locks the member with the better cached top. A failed try-lock
// resamples that member, and a pair that looks empty is resampled whole.
// When the s operations are spent the insert buffer is flushed and a
// fresh pair drawn. Stickiness trades rank for locality: the same heaps
// stay cache-hot and the same locks uncontended. It is defined on the
// buffered, peeking Multi-Queue only (InsertBatch, DeleteBatch and
// PeekTops); Engineered is Williams et al.'s configuration.
package mq

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/contend"
	"repro/internal/numa"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// InsertPolicy selects how Push chooses target queues.
type InsertPolicy int

const (
	// InsertTemporalLocality reuses the last insertion queue and
	// re-randomizes with probability PInsertChange. PInsertChange = 1
	// reproduces the classic uniformly-random insert.
	InsertTemporalLocality InsertPolicy = iota
	// InsertBatch accumulates BatchInsert tasks in a thread-local buffer
	// and flushes them to one random queue under a single lock.
	InsertBatch
)

// DeletePolicy selects how Pop chooses source queues.
type DeletePolicy int

const (
	// DeleteTemporalLocality reuses the last deletion queue and performs
	// a fresh two-choice pick with probability PDeleteChange.
	// PDeleteChange = 1 reproduces the classic two-choice delete.
	DeleteTemporalLocality DeletePolicy = iota
	// DeleteBatch performs a two-choice pick and extracts BatchDelete
	// tasks at once into a thread-local buffer.
	DeleteBatch
	// DeleteLocal always pops from the worker's own queue block (the
	// RELD discipline [14]); it falls back to a global sweep when the
	// local block is empty so tasks cannot strand.
	DeleteLocal
)

// Config parameterizes the Multi-Queue family.
type Config struct {
	// Workers is the number of worker slots. Required.
	Workers int
	// C is the queues-per-worker multiplier; m = C·Workers. Default 4
	// (the paper's ablation baseline configuration).
	C int
	// Insert / Delete select the operation policies (defaults are the
	// classic random policies via the zero-value + default params).
	Insert InsertPolicy
	Delete DeletePolicy
	// PInsertChange is the probability that a temporal-locality insert
	// picks a new queue. Default 1 (classic).
	PInsertChange float64
	// PDeleteChange is the probability that a temporal-locality delete
	// performs a fresh two-choice pick. Default 1 (classic).
	PDeleteChange float64
	// BatchInsert / BatchDelete are the batch sizes for the batching
	// policies. Default 8. Under DeleteBatch, BatchDelete is the number
	// of tasks one lock acquisition extracts, for Pop and PopN alike.
	BatchInsert int
	BatchDelete int
	// HeapArity is the per-queue heap fan-out. Default 4.
	HeapArity int
	// PeekTops enables the lock-free top-peeking optimization used by
	// the Galois Multi-Queue: each queue caches its top priority in an
	// atomic word, and the two-choice delete compares the cached tops
	// WITHOUT locking both queues, locking only the winner. The cached
	// top can be momentarily stale — another (benign) relaxation.
	PeekTops bool
	// Stickiness > 0 is the engineered MultiQueue's queue stickiness: a
	// worker keeps its sticky queue pair for Stickiness operations, its
	// pushes and pops counted together, before drawing a fresh pair (see
	// the package documentation). It requires Insert = InsertBatch,
	// Delete = DeleteBatch and PeekTops. Default 0 (off).
	Stickiness int
	// Seed makes runs reproducible.
	Seed uint64
	// NUMANodes > 1 enables weighted queue sampling with divisor
	// NUMAWeightK (§4).
	NUMANodes   int
	NUMAWeightK float64
}

// Validate reports whether the configuration can build a scheduler:
// Workers must be positive, policies must be known, and every set field
// within its documented domain (zero values select defaults). New
// panics with exactly this error on an invalid configuration, so
// callers that must not panic validate first.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("mq: Config.Workers = %d, must be positive", c.Workers)
	}
	if c.C < 0 {
		return fmt.Errorf("mq: Config.C = %d, must be >= 0", c.C)
	}
	if c.Insert < InsertTemporalLocality || c.Insert > InsertBatch {
		return fmt.Errorf("mq: unknown InsertPolicy %d", c.Insert)
	}
	if c.Delete < DeleteTemporalLocality || c.Delete > DeleteLocal {
		return fmt.Errorf("mq: unknown DeletePolicy %d", c.Delete)
	}
	if !(c.PInsertChange >= 0 && c.PInsertChange <= 1) {
		return fmt.Errorf("mq: Config.PInsertChange = %g, must be a probability in [0, 1]", c.PInsertChange)
	}
	if !(c.PDeleteChange >= 0 && c.PDeleteChange <= 1) {
		return fmt.Errorf("mq: Config.PDeleteChange = %g, must be a probability in [0, 1]", c.PDeleteChange)
	}
	if c.BatchInsert < 0 {
		return fmt.Errorf("mq: Config.BatchInsert = %d, must be >= 0", c.BatchInsert)
	}
	if c.BatchDelete < 0 {
		return fmt.Errorf("mq: Config.BatchDelete = %d, must be >= 0", c.BatchDelete)
	}
	if c.HeapArity < 0 || c.HeapArity == 1 {
		return fmt.Errorf("mq: Config.HeapArity = %d, must be 0 (default) or >= 2", c.HeapArity)
	}
	if c.NUMANodes < 0 {
		return fmt.Errorf("mq: Config.NUMANodes = %d, must be >= 0", c.NUMANodes)
	}
	if !(c.NUMAWeightK >= 0) || math.IsInf(c.NUMAWeightK, 1) {
		return fmt.Errorf("mq: Config.NUMAWeightK = %g, must be finite and >= 0", c.NUMAWeightK)
	}
	if c.Stickiness < 0 {
		return fmt.Errorf("mq: Config.Stickiness = %d, must be >= 0", c.Stickiness)
	}
	if c.Stickiness > 0 && (c.Insert != InsertBatch || c.Delete != DeleteBatch || !c.PeekTops) {
		return fmt.Errorf("mq: Config.Stickiness = %d needs Insert = InsertBatch, Delete = DeleteBatch and PeekTops", c.Stickiness)
	}
	return nil
}

// WithDefaults returns a copy with every zero-valued field replaced by
// its documented default. Construction applies it after Validate.
func (c Config) WithDefaults() Config {
	if c.C == 0 {
		c.C = 4
	}
	if c.PInsertChange == 0 {
		c.PInsertChange = 1
	}
	if c.PDeleteChange == 0 {
		c.PDeleteChange = 1
	}
	if c.BatchInsert == 0 {
		c.BatchInsert = 8
	}
	if c.BatchDelete == 0 {
		c.BatchDelete = 8
	}
	if c.HeapArity == 0 {
		c.HeapArity = pq.DefaultArity
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

// Classic returns the configuration of Listing 1: uniformly random
// insert, two-choice delete, m = C·workers lock-protected heaps.
func Classic(workers, c int) Config {
	return Config{Workers: workers, C: c}
}

// RELD returns the random-enqueue local-dequeue configuration of [14]:
// one queue per worker, random insert, local delete.
func RELD(workers int) Config {
	return Config{Workers: workers, C: 1, Delete: DeleteLocal}
}

// Engineered returns the engineered MultiQueue of Williams et al. at
// their recommended configuration: m = 2·workers 8-ary heaps (buffered
// bulk operations amortize the deeper comparisons), insert and delete
// buffers of 16, cached tops, and sticky queue pairs kept for 16
// operations.
func Engineered(workers int) Config {
	return Config{Workers: workers, C: 2, Insert: InsertBatch, Delete: DeleteBatch,
		BatchInsert: 16, BatchDelete: 16, HeapArity: 8, PeekTops: true, Stickiness: 16}
}

// lockQueue is one of the m sequential heaps behind a try-lock. The
// cached top is maintained under the lock and read lock-free by the
// PeekTops delete path.
//
// The queues live in one contiguous slice (pointer-free indexing on the
// two-choice hot path) and each is exactly one cache line holding all
// three things an operation touches before it reaches the items: the
// lock word, the heap header and the cached top. The header is embedded
// by value, as in core.heapQueue: allocated on their own, the 40-byte
// headers fall in the 48-byte size class back to back, so two queues'
// items headers — written on every push and pop — share a line, and a
// top comparison chases lock line → header line → item line. In one
// line, taking the lock brings the header with it.
// TestLockQueuePadding pins the layout.
type lockQueue[T any] struct {
	mu   contend.Lock
	peek bool // maintain the cached top? (Config.PeekTops)
	heap pq.DHeap[T]
	top  atomic.Uint64 // cached heap top (InfPriority when empty)
	_    [contend.CacheLineSize - 56]byte
}

// The following helpers must be called with q.mu held; they keep the
// cached top coherent with the heap. Only the PeekTops delete path ever
// reads the cached top, so non-peek configurations skip the maintenance
// entirely — an atomic store is a full fence (XCHG on amd64) and paying
// one per heap operation for an unused cache is measurable — and peek
// configurations skip the store when the top is unchanged, e.g. after a
// flushed batch whose best task is worse than the resident top.

func (q *lockQueue[T]) push(p uint64, v T) {
	q.heap.Push(p, v)
	q.syncTop()
}

func (q *lockQueue[T]) pushAll(items []pq.Item[T]) {
	for _, it := range items {
		q.heap.PushItem(it)
	}
	q.syncTop()
}

func (q *lockQueue[T]) popBatch(k int, dst []pq.Item[T]) []pq.Item[T] {
	dst = q.heap.PopBatch(k, dst)
	q.syncTop()
	return dst
}

func (q *lockQueue[T]) syncTop() {
	if !q.peek {
		return
	}
	if t := q.heap.Top(); t != q.top.Load() {
		q.top.Store(t)
	}
}

// MQ is the Multi-Queue scheduler family.
type MQ[T any] struct {
	cfg      Config
	topo     numa.Topology
	queues   []lockQueue[T] // contiguous, each element one padded cache line
	workers  []mqWorker[T]
	counters []sched.Counters
}

// New builds a Multi-Queue with the given configuration.
func New[T any](cfg Config) *MQ[T] {
	cfg.normalize()
	s := &MQ[T]{
		cfg:      cfg,
		topo:     numa.New(cfg.Workers, max(cfg.NUMANodes, 1), cfg.C),
		queues:   make([]lockQueue[T], cfg.Workers*cfg.C),
		workers:  make([]mqWorker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	for i := range s.queues {
		s.queues[i].heap = *pq.NewDHeapCap[T](cfg.HeapArity, 64)
		s.queues[i].peek = cfg.PeekTops
		s.queues[i].top.Store(pq.InfPriority)
	}
	k := 1.0
	if cfg.NUMANodes > 1 {
		k = cfg.NUMAWeightK
	}
	for i := range s.workers {
		w := &s.workers[i]
		w.s = s
		w.id = i
		w.rng.Seed(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)
		w.smp = *numa.NewSampler(s.topo, i, k, &w.rng)
		w.c = &s.counters[i]
		w.lastIns = -1
		w.lastDel = -1
		if cfg.Delete == DeleteBatch {
			w.delBuf = make([]pq.Item[T], 0, cfg.BatchDelete)
		}
		if cfg.Stickiness > 0 {
			w.resample()
			w.stick = cfg.Stickiness
		}
	}
	return s
}

// Workers reports the number of worker slots.
func (s *MQ[T]) Workers() int { return s.cfg.Workers }

// Worker returns the handle for worker w.
func (s *MQ[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("mq: worker index %d out of range [0,%d)", w, len(s.workers)))
	}
	return &s.workers[w]
}

// Stats aggregates counters; call only after workers quiesce.
func (s *MQ[T]) Stats() sched.Stats {
	for i := range s.workers {
		s.counters[i].Remote = s.workers[i].smp.Remote
	}
	return sched.SumCounters(s.counters)
}

// mqWorker is the per-goroutine handle with all thread-local state. The
// RNG and NUMA sampler are embedded by value: both mutate on every
// operation, and as separate heap allocations two workers' generators
// could share a cache line; inside the padded worker struct they cannot.
type mqWorker[T any] struct {
	s   *MQ[T]
	id  int
	rng xrand.Rand
	smp numa.Sampler
	c   *sched.Counters

	lastIns int // temporal-locality insert queue
	lastDel int // temporal-locality delete queue

	sticky [2]int // the sticky queue pair (Stickiness > 0)
	stick  int    // operations left before the pair is resampled

	insBuf []pq.Item[T] // batching insert buffer
	delBuf []pq.Item[T] // batching delete buffer (served front to back)
	delIdx int
	one    [1]pq.Item[T] // Pop's destination

	// bulk is the PushN zip scratch (pairs assembled before the single
	// locked pushAll); reused in place, zeroed after each batch.
	bulk []pq.Item[T]

	sweepSkip []int // queues the sweep's try-lock pass skipped (reused)

	// Workers sit in one contiguous slice and mutate lastIns/lastDel/
	// delIdx on every operation; a trailing cache line keeps those hot
	// words off the neighbouring worker's line.
	_ [contend.CacheLineSize]byte
}

// Push inserts a task according to the configured insert policy.
func (w *mqWorker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	switch w.s.cfg.Insert {
	case InsertBatch:
		w.insBuf = append(w.insBuf, pq.Item[T]{P: p, V: v})
		if len(w.insBuf) >= w.s.cfg.BatchInsert {
			w.flushInsertBuffer()
		}
		w.tickN(1)
	default: // InsertTemporalLocality (classic when PInsertChange == 1)
		if w.lastIns < 0 || w.rng.Bernoulli(w.s.cfg.PInsertChange) {
			w.lastIns = w.smp.Sample()
		}
		for {
			q := &w.s.queues[w.lastIns]
			if q.mu.TryLock() {
				q.push(p, v)
				q.mu.Unlock()
				return
			}
			w.c.LockFails++
			w.lastIns = w.smp.Sample()
		}
	}
}

// PushN inserts a whole batch under a single lock acquisition: the
// pairs are zipped into the worker's scratch run and pushed with one
// pushAll on one target queue (the temporal-locality queue choice is
// made once per batch — placing a batch on one queue is the same
// relaxation-for-synchronization trade the InsertBatch policy makes).
// Under the InsertBatch policy the batch routes through the insert
// buffer, flushing at each capacity crossing, and spends its stickiness
// budget in one tickN.
func (w *mqWorker[T]) PushN(ps []uint64, vs []T) {
	sched.CheckPushN(len(ps), len(vs))
	if len(ps) == 0 {
		return
	}
	w.c.Pushes += uint64(len(ps))
	if w.s.cfg.Insert == InsertBatch {
		for i, p := range ps {
			w.insBuf = append(w.insBuf, pq.Item[T]{P: p, V: vs[i]})
			if len(w.insBuf) >= w.s.cfg.BatchInsert {
				w.flushInsertBuffer()
			}
		}
		w.tickN(len(ps))
		return
	}
	w.bulk = w.bulk[:0]
	for i, p := range ps {
		w.bulk = append(w.bulk, pq.Item[T]{P: p, V: vs[i]})
	}
	if w.lastIns < 0 || w.rng.Bernoulli(w.s.cfg.PInsertChange) {
		w.lastIns = w.smp.Sample()
	}
	for {
		q := &w.s.queues[w.lastIns]
		if q.mu.TryLock() {
			q.pushAll(w.bulk)
			q.mu.Unlock()
			break
		}
		w.c.LockFails++
		w.lastIns = w.smp.Sample()
	}
	clear(w.bulk)
	w.bulk = w.bulk[:0]
}

// flushInsertBuffer moves the whole insert batch into one random queue
// — under Stickiness, a random member of the sticky pair — under a
// single lock acquisition. A failed try-lock draws another queue; under
// Stickiness it resamples that member of the pair.
func (w *mqWorker[T]) flushInsertBuffer() {
	if len(w.insBuf) == 0 {
		return
	}
	sticky := w.s.cfg.Stickiness > 0
	slot := 0
	if sticky && w.rng.OneIn(2) {
		slot = 1
	}
	for {
		qi := w.sticky[slot]
		if !sticky {
			qi = w.smp.Sample()
		}
		q := &w.s.queues[qi]
		if !q.mu.TryLock() {
			w.c.LockFails++
			if sticky {
				w.resampleSlot(slot)
			}
			continue
		}
		q.pushAll(w.insBuf)
		q.mu.Unlock()
		clear(w.insBuf)
		w.insBuf = w.insBuf[:0]
		return
	}
}

// resample draws a fresh sticky queue pair.
func (w *mqWorker[T]) resample() {
	w.sticky[0] = w.smp.Sample()
	w.sticky[1] = w.sticky[0]
	if len(w.s.queues) > 1 {
		w.sticky[1] = w.smp.SampleOther(w.sticky[0])
	}
}

// resampleSlot replaces one member of the sticky pair after a failed
// try-lock: contention means another worker is using that queue.
func (w *mqWorker[T]) resampleSlot(slot int) {
	if len(w.s.queues) > 1 {
		w.sticky[slot] = w.smp.SampleOther(w.sticky[1-slot])
	}
}

// tickN retires n operations from the stickiness budget, exactly as n
// single ticks would: each time the budget runs out the insert buffer is
// published and a fresh sticky pair drawn. Without Stickiness it does
// nothing.
func (w *mqWorker[T]) tickN(n int) {
	if w.s.cfg.Stickiness == 0 {
		return
	}
	for n >= w.stick {
		n -= w.stick
		w.flushInsertBuffer()
		w.resample()
		w.stick = w.s.cfg.Stickiness
	}
	w.stick -= n
}

// Pop is PopN into the worker's one-slot destination.
func (w *mqWorker[T]) Pop() (uint64, T, bool) {
	if w.PopN(w.one[:]) == 0 {
		var zero T
		return pq.InfPriority, zero, false
	}
	it := w.one[0]
	w.one[0] = pq.Item[T]{}
	return it.P, it.V, true
}

// PopN is the delete, scalar (Pop) and batched alike. Without a delete
// buffer one extraction — one queue choice, one lock acquisition —
// serves the whole call: up to len(dst) tasks leave the winning queue
// straight into dst (the DeleteBatch trade at the caller's size). Under
// DeleteBatch the thread-local buffer is the unit of extraction instead:
// dst is served from it, and a dry buffer is refilled with BatchDelete
// tasks from a fresh two-choice winner, so k Pops and one PopN of k pop
// the same sequence and no lock acquisition takes more than BatchDelete.
// Every task served, and an empty PopN, spends one operation of the
// stickiness budget.
func (w *mqWorker[T]) PopN(dst []sched.Task[T]) int {
	if len(dst) == 0 {
		return 0
	}
	n := 0
	if w.s.cfg.Delete != DeleteBatch {
		n = w.extract(dst)
	} else {
		for n < len(dst) {
			if w.delIdx == len(w.delBuf) {
				w.delBuf = w.delBuf[:w.extract(w.delBuf[:w.s.cfg.BatchDelete])]
				w.delIdx = 0
				if len(w.delBuf) == 0 {
					break
				}
			}
			k := copy(dst[n:], w.delBuf[w.delIdx:])
			clear(w.delBuf[w.delIdx : w.delIdx+k])
			w.delIdx += k
			n += k
			w.tickN(k)
		}
	}
	if n > 0 {
		w.c.Pops += uint64(n)
	} else {
		w.c.EmptyPops++
		w.tickN(1)
	}
	return n
}

// extract is one extraction by the configured delete policy: up to
// len(dst) tasks into dst from the policy's choice of queue (RELD: of
// the worker's own block). It returns the count.
func (w *mqWorker[T]) extract(dst []pq.Item[T]) int {
	n := w.extractPolicy(dst)
	if n == 0 && len(w.insBuf) > 0 {
		// Our unflushed insert batch may hold the only remaining tasks;
		// publish it and retry so tasks can never strand (liveness).
		w.flushInsertBuffer()
		n = w.extractPolicy(dst)
	}
	return n
}

func (w *mqWorker[T]) extractPolicy(dst []pq.Item[T]) int {
	switch w.s.cfg.Delete {
	case DeleteLocal:
		return w.extractLocal(dst)
	case DeleteTemporalLocality:
		// With probability 1−PDeleteChange the extraction reuses the
		// previous delete queue, falling through to a fresh two-choice
		// pick on a miss.
		if w.lastDel >= 0 && !w.rng.Bernoulli(w.s.cfg.PDeleteChange) {
			q := &w.s.queues[w.lastDel]
			if q.mu.TryLock() {
				n := len(q.popBatch(len(dst), dst[:0]))
				q.mu.Unlock()
				if n > 0 {
					return n
				}
			} else {
				w.c.LockFails++
			}
		}
	}
	return w.extractRandom2(dst)
}

// extractRandom2 is Listing 1's delete: extract from the better of two
// random queues (under Stickiness, of the sticky pair). After bounded
// failed attempts it falls back to a full sweep so that spurious
// emptiness is rare.
func (w *mqWorker[T]) extractRandom2(dst []pq.Item[T]) int {
	for attempt := 0; attempt < 4; attempt++ {
		qi, ok := w.lockWinner()
		if !ok {
			continue
		}
		q := &w.s.queues[qi]
		n := len(q.popBatch(len(dst), dst[:0]))
		q.mu.Unlock()
		if n > 0 {
			w.lastDel = qi
			return n
		}
		if w.s.cfg.Stickiness > 0 {
			w.resample()
		}
	}
	return w.sweep(dst)
}

// lockWinner try-locks the better of two queues — two distinct random
// ones, or under Stickiness the sticky pair. ok=false means nothing is
// held: a try-lock failed (counted in LockFails; under Stickiness that
// member of the pair is resampled), or the winner's cached top says it
// is empty (under Stickiness the pair is resampled), which spares a lock
// round trip that could pop nothing.
func (w *mqWorker[T]) lockWinner() (qi int, ok bool) {
	sticky := w.s.cfg.Stickiness > 0
	slot := 0
	if sticky {
		qi = w.sticky[0]
		if w.s.queues[w.sticky[1]].top.Load() < w.s.queues[qi].top.Load() {
			qi, slot = w.sticky[1], 1
		}
	} else if qi = w.smp.Sample(); len(w.s.queues) > 1 {
		i2 := w.smp.SampleOther(qi)
		q, q2 := &w.s.queues[qi], &w.s.queues[i2]
		if !w.s.cfg.PeekTops {
			if !q.mu.TryLock() {
				w.c.LockFails++
				return qi, false
			}
			if !q2.mu.TryLock() {
				q.mu.Unlock()
				w.c.LockFails++
				return qi, false
			}
			// Release the loser right after the top comparison (Listing 1
			// only needs both locks for the comparison itself); holding it
			// across the winner's extraction would serialize unrelated
			// workers against the loser queue under contention.
			if q2.heap.Top() < q.heap.Top() {
				qi, q2 = i2, q
			}
			q2.mu.Unlock()
			return qi, true
		}
		// Compare the atomically cached tops without taking either lock
		// and lock only the winner. A stale cached top is a benign extra
		// relaxation (the popped task is still a recent top).
		if q2.top.Load() < q.top.Load() {
			qi = i2
		}
	}
	q := &w.s.queues[qi]
	if w.s.cfg.PeekTops && q.top.Load() == pq.InfPriority {
		if sticky {
			w.resample()
		}
		return qi, false
	}
	if !q.mu.TryLock() {
		w.c.LockFails++
		if sticky {
			w.resampleSlot(slot)
		}
		return qi, false
	}
	return qi, true
}

// extractLocal is the RELD delete: drain the worker's own queue block,
// one lock acquisition per non-empty queue, sweeping globally only when
// the block is empty so tasks cannot strand.
func (w *mqWorker[T]) extractLocal(dst []pq.Item[T]) int {
	base := w.id * w.s.cfg.C
	n := 0
	for off := 0; off < w.s.cfg.C && n < len(dst); off++ {
		q := &w.s.queues[base+off]
		q.mu.Lock()
		n = len(q.popBatch(len(dst)-n, dst[:n]))
		q.mu.Unlock()
	}
	if n > 0 {
		return n
	}
	return w.sweep(dst)
}

// sweep scans every queue once from a random start and extracts up to
// len(dst) tasks into dst from the first non-empty one. It returns 0
// only when every queue was observed empty, which makes spurious Pop
// failures rare (they can still happen — the contract allows it).
//
// The first pass uses try-locks (counting failures in LockFails) so a
// sweeping worker never stalls behind a queue that is busy serving
// others; only queues skipped by the first pass are re-visited with a
// blocking lock, preserving the every-queue-observed guarantee.
func (w *mqWorker[T]) sweep(dst []pq.Item[T]) int {
	m := len(w.s.queues)
	start := w.rng.Intn(m)
	w.sweepSkip = w.sweepSkip[:0]
	for off := 0; off < m; off++ {
		qi := start + off
		if qi >= m {
			qi -= m
		}
		q := &w.s.queues[qi]
		if !q.mu.TryLock() {
			w.c.LockFails++
			w.sweepSkip = append(w.sweepSkip, qi)
			continue
		}
		n := len(q.popBatch(len(dst), dst[:0]))
		q.mu.Unlock()
		if n > 0 {
			w.lastDel = qi
			return n
		}
	}
	for _, qi := range w.sweepSkip {
		q := &w.s.queues[qi]
		q.mu.Lock()
		n := len(q.popBatch(len(dst), dst[:0]))
		q.mu.Unlock()
		if n > 0 {
			w.lastDel = qi
			return n
		}
	}
	return 0
}
