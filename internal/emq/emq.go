// Package emq implements the engineered MultiQueue of Williams, Sanders
// and Dementiev, "Engineering MultiQueues: Fast Relaxed Concurrent
// Priority Queues" (2021) — the strongest published follow-up to the
// classic Multi-Queue of Rihani, Sanders and Dementiev (2015) that the
// SMQ paper compares against.
//
// The engineered MultiQueue keeps the classic layout — m = C·Workers
// sequential heaps, each behind a try-lock, two-choice delete — and adds
// two orthogonal engineering optimisations:
//
//   - Queue stickiness: instead of sampling fresh queues on every
//     operation, each worker holds a pair of sticky queue indices that
//     persist for Stickiness consecutive operations (pushes and pops).
//     Insertions flush to a member of the pair; deletions run the
//     two-choice comparison between the pair's cached tops. On expiry —
//     or on a failed try-lock, which signals contention — the indices
//     are resampled. Stickiness trades rank quality for locality: the
//     same heaps stay cache-hot and the same locks stay uncontended.
//
//   - Operation buffers: each worker owns a bounded insertion buffer,
//     flushed into a sticky queue under a single lock acquisition when
//     it overflows or stickiness expires, and a deletion buffer that
//     pre-pops a batch of DeleteBuffer tasks from the locked winner of
//     the two-choice comparison and then serves them lock-free. The
//     deletion buffer is the unit of extraction for Pop and PopN alike
//     (Pop is PopN of one): a PopN larger than the buffer refills it
//     as often as it runs dry, each time from a fresh comparison.
//
// Queue sampling reuses the weighted NUMA distribution of internal/numa
// (§4 of the SMQ paper), so the NUMA scenario carries over: with
// NUMANodes > 1 sticky resampling prefers node-local queues with weight
// divisor NUMAWeightK and Stats().Remote counts off-node accesses.
//
// # Relaxation and liveness
//
// Pop serves the deletion buffer before touching any shared state, so a
// worker can never abandon pre-popped tasks (their Pending entries keep
// the computation alive until they are served). When the sticky pair
// looks empty, Pop first publishes the worker's own insertion buffer and
// then falls back to a full sweep of all queues, so it returns ok=false
// only when every queue was observed empty — spurious emptiness remains
// possible (tasks may hide in other workers' buffers), exactly the
// relaxation the sched.Pending protocol is designed for.
package emq

import (
	"fmt"
	"sync/atomic"

	"repro/internal/contend"
	"repro/internal/numa"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// Config parameterizes the engineered MultiQueue. The zero value of each
// field selects a default close to the original paper's recommended
// configuration (c = 2, stickiness and buffers of moderate size, 8-ary
// heaps).
type Config struct {
	// Workers is the number of worker slots. Required.
	Workers int
	// C is the queues-per-worker multiplier; m = C·Workers. Default 2
	// (the engineered MultiQueue's recommended factor — stickiness makes
	// the larger C of the classic Multi-Queue unnecessary).
	C int
	// Stickiness is the number of operations (pushes + pops) a worker
	// keeps its sticky queue pair before resampling. 1 degenerates to
	// the classic fresh-sample-per-operation behaviour. Default 16.
	Stickiness int
	// InsertBuffer is the insertion buffer capacity: pushes accumulate
	// locally and are flushed under one lock acquisition when the buffer
	// fills or stickiness expires. 1 disables buffering. Default 16.
	InsertBuffer int
	// DeleteBuffer is the deletion buffer capacity: a refill pre-pops up
	// to this many tasks from the locked two-choice winner and serves
	// them lock-free, to Pop and PopN alike — no lock acquisition takes
	// more, whatever the size of PopN's destination. 1 disables
	// buffering. Default 16.
	DeleteBuffer int
	// HeapArity is the per-queue heap fan-out. Default 8 (the engineered
	// MultiQueue favours wider heaps than the classic MQ's 4: buffered
	// bulk operations amortize the deeper comparisons).
	HeapArity int
	// Seed makes runs reproducible.
	Seed uint64
	// NUMANodes > 1 enables weighted queue sampling over virtual NUMA
	// nodes with divisor NUMAWeightK (§4 of the SMQ paper).
	NUMANodes   int
	NUMAWeightK float64
}

// Validate reports whether the configuration can build a scheduler:
// Workers must be positive and every set field within its documented
// domain (zero values select defaults). New panics with exactly this
// error on an invalid configuration, so callers that must not panic
// validate first.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("emq: Config.Workers = %d, must be positive", c.Workers)
	}
	if c.C < 0 {
		return fmt.Errorf("emq: Config.C = %d, must be >= 0", c.C)
	}
	if c.Stickiness < 0 {
		return fmt.Errorf("emq: Config.Stickiness = %d, must be >= 0", c.Stickiness)
	}
	if c.InsertBuffer < 0 {
		return fmt.Errorf("emq: Config.InsertBuffer = %d, must be >= 0", c.InsertBuffer)
	}
	if c.DeleteBuffer < 0 {
		return fmt.Errorf("emq: Config.DeleteBuffer = %d, must be >= 0", c.DeleteBuffer)
	}
	if c.HeapArity < 0 || c.HeapArity == 1 {
		return fmt.Errorf("emq: Config.HeapArity = %d, must be 0 (default) or >= 2", c.HeapArity)
	}
	if c.NUMANodes < 0 {
		return fmt.Errorf("emq: Config.NUMANodes = %d, must be >= 0", c.NUMANodes)
	}
	if c.NUMAWeightK < 0 {
		return fmt.Errorf("emq: Config.NUMAWeightK = %g, must be >= 0", c.NUMAWeightK)
	}
	return nil
}

// WithDefaults returns a copy with every zero-valued field replaced by
// its documented default. Construction applies it after Validate.
func (c Config) WithDefaults() Config {
	if c.C == 0 {
		c.C = 2
	}
	if c.Stickiness == 0 {
		c.Stickiness = 16
	}
	if c.InsertBuffer == 0 {
		c.InsertBuffer = 16
	}
	if c.DeleteBuffer == 0 {
		c.DeleteBuffer = 16
	}
	if c.HeapArity == 0 {
		c.HeapArity = 8
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

// lockQueue is one of the m sequential heaps behind a try-lock. The
// cached top is maintained under the lock and read lock-free by the
// sticky two-choice comparison (the engineered MultiQueue never locks a
// queue just to inspect its top).
//
// The queues live in one contiguous slice and each is exactly one cache
// line holding the lock word, the heap header and the cached top. The
// header is embedded by value for the reason mq.lockQueue gives: on
// their own the 40-byte headers share lines two by two, and every
// locked operation pays a second line for a header the lock's line has
// room for. TestLockQueuePadding pins the layout.
type lockQueue[T any] struct {
	mu   contend.Lock
	heap pq.DHeap[T]
	top  atomic.Uint64 // cached heap top (InfPriority when empty)
	_    [contend.CacheLineSize - 56]byte
}

// The helpers below must be called with q.mu held; they keep the cached
// top coherent with the heap. The engineered MultiQueue always operates
// in bulk (buffer flushes and batch refills), so the atomic top store —
// a full fence on amd64 — is paid once per batch, not once per task,
// and only when the top actually changed.

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

// syncTop refreshes the lock-free cached top, skipping the (fencing)
// atomic store when the heap top is unchanged — e.g. a flushed batch
// whose best task is worse than the resident top.
func (q *lockQueue[T]) syncTop() {
	if t := q.heap.Top(); t != q.top.Load() {
		q.top.Store(t)
	}
}

// EMQ is the engineered MultiQueue scheduler.
type EMQ[T any] struct {
	cfg      Config
	topo     numa.Topology
	queues   []lockQueue[T] // contiguous, each element one padded cache line
	workers  []worker[T]
	counters []sched.Counters
}

// New builds an engineered MultiQueue with the given configuration.
func New[T any](cfg Config) *EMQ[T] {
	cfg.normalize()
	s := &EMQ[T]{
		cfg:      cfg,
		topo:     numa.New(cfg.Workers, max(cfg.NUMANodes, 1), cfg.C),
		queues:   make([]lockQueue[T], cfg.Workers*cfg.C),
		workers:  make([]worker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	for i := range s.queues {
		s.queues[i].heap = *pq.NewDHeapCap[T](cfg.HeapArity, 64)
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
		w.insBuf = make([]pq.Item[T], 0, cfg.InsertBuffer)
		w.delBuf = make([]pq.Item[T], 0, cfg.DeleteBuffer)
		w.resample()
		w.stick = cfg.Stickiness
	}
	return s
}

// Workers reports the number of worker slots.
func (s *EMQ[T]) Workers() int { return s.cfg.Workers }

// Worker returns the handle for worker w. Each handle must be used by a
// single goroutine.
func (s *EMQ[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("emq: worker index %d out of range [0,%d)", w, len(s.workers)))
	}
	return &s.workers[w]
}

// Stats aggregates counters; call only after workers quiesce.
func (s *EMQ[T]) Stats() sched.Stats {
	for i := range s.workers {
		s.counters[i].Remote = s.workers[i].smp.Remote
	}
	return sched.SumCounters(s.counters)
}

// worker is the per-goroutine handle with all thread-local state. The
// RNG and NUMA sampler are embedded by value: both mutate on every
// operation, and as separate heap allocations two workers' generators
// could share a cache line; inside the padded worker struct they cannot.
type worker[T any] struct {
	s   *EMQ[T]
	id  int
	rng xrand.Rand
	smp numa.Sampler
	c   *sched.Counters

	sticky [2]int // the sticky queue pair
	stick  int    // operations left before resampling

	insBuf []pq.Item[T] // insertion buffer
	delBuf []pq.Item[T] // deletion buffer (served front to back)
	delIdx int
	one    [1]pq.Item[T] // Pop's destination

	sweepSkip []int // queues the sweep's try-lock pass skipped (reused)

	// Workers sit in one contiguous slice and mutate stick/delIdx on
	// every operation; a trailing cache line keeps those hot words off
	// the neighbouring worker's line.
	_ [contend.CacheLineSize]byte
}

// resample draws a fresh sticky queue pair (NUMA-weighted when
// configured).
func (w *worker[T]) resample() {
	w.sticky[0] = w.smp.Sample()
	if w.s.topo.NumQueues() > 1 {
		w.sticky[1] = w.smp.SampleOther(w.sticky[0])
	} else {
		w.sticky[1] = w.sticky[0]
	}
}

// resampleSlot replaces one member of the sticky pair after a failed
// try-lock (contention means another worker is stuck to that queue).
func (w *worker[T]) resampleSlot(slot int) {
	if w.s.topo.NumQueues() > 1 {
		w.sticky[slot] = w.smp.SampleOther(w.sticky[1-slot])
	}
}

// tickN retires n operations from the stickiness budget, exactly as n
// single ticks would: each time the budget expires the insertion buffer
// is published and the sticky pair resampled.
func (w *worker[T]) tickN(n int) {
	for n >= w.stick {
		n -= w.stick
		w.flushInserts()
		w.resample()
		w.stick = w.s.cfg.Stickiness
	}
	w.stick -= n
}

// Push appends to the insertion buffer, flushing to a sticky queue when
// the buffer reaches capacity.
func (w *worker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	w.insBuf = append(w.insBuf, pq.Item[T]{P: p, V: v})
	if len(w.insBuf) >= w.s.cfg.InsertBuffer {
		w.flushInserts()
	}
	w.tickN(1)
}

// flushInserts publishes the whole insertion buffer into a sticky queue
// under a single lock acquisition. A failed try-lock resamples that
// sticky slot and retries with the replacement.
func (w *worker[T]) flushInserts() {
	if len(w.insBuf) == 0 {
		return
	}
	slot := 0
	if w.rng.OneIn(2) {
		slot = 1
	}
	for {
		q := &w.s.queues[w.sticky[slot]]
		if q.mu.TryLock() {
			q.pushAll(w.insBuf)
			q.mu.Unlock()
			clear(w.insBuf)
			w.insBuf = w.insBuf[:0]
			return
		}
		w.c.LockFails++
		w.resampleSlot(slot)
	}
}

// PushN routes a whole batch through the insertion buffer — the
// engineered MultiQueue's own mechanism — flushing at each capacity
// crossing (one locked pushAll per InsertBuffer tasks) and spending
// the batch's stickiness budget in one tickN.
func (w *worker[T]) PushN(ps []uint64, vs []T) {
	sched.CheckPushN(len(ps), len(vs))
	if len(ps) == 0 {
		return
	}
	w.c.Pushes += uint64(len(ps))
	for i, p := range ps {
		w.insBuf = append(w.insBuf, pq.Item[T]{P: p, V: vs[i]})
		if len(w.insBuf) >= w.s.cfg.InsertBuffer {
			w.flushInserts()
		}
	}
	w.tickN(len(ps))
}

// Pop is PopN into the worker's one-slot destination.
func (w *worker[T]) Pop() (uint64, T, bool) {
	if w.PopN(w.one[:]) == 0 {
		var zero T
		return pq.InfPriority, zero, false
	}
	it := w.one[0]
	w.one[0] = pq.Item[T]{}
	return it.P, it.V, true
}

// PopN serves dst from the deletion buffer, refilling it with
// DeleteBuffer tasks from the sticky pair (or, failing that, a global
// sweep) whenever it runs dry. The buffer is the unit of extraction
// whatever len(dst) is, and every served task retires one operation
// from the stickiness budget, so k Pops and one PopN of k pop the same
// sequence.
func (w *worker[T]) PopN(dst []sched.Task[T]) int {
	if len(dst) == 0 {
		return 0
	}
	n := 0
	for n < len(dst) {
		if w.delIdx == len(w.delBuf) && !w.refill() {
			if len(w.insBuf) == 0 {
				break
			}
			// Our unflushed insertion buffer may hold the only remaining
			// tasks; publish it and retry so tasks can never strand.
			w.flushInserts()
			continue
		}
		k := copy(dst[n:], w.delBuf[w.delIdx:])
		clear(w.delBuf[w.delIdx : w.delIdx+k])
		w.delIdx += k
		n += k
		w.c.Pops += uint64(k)
		w.tickN(k)
	}
	if n == 0 {
		w.c.EmptyPops++
		w.tickN(1)
	}
	return n
}

// refill pre-pops up to DeleteBuffer tasks into the deletion buffer from
// the two-choice winner of the sticky pair, comparing the pair's cached
// tops without locking either queue and popping the whole run under the
// winner's single lock acquisition. Lock failures resample the contended
// slot; empty pairs resample both. After bounded attempts it falls back
// to a full sweep so spurious emptiness is rare. It reports whether the
// buffer holds anything.
func (w *worker[T]) refill() bool {
	w.delIdx = 0
	for attempt := 0; attempt < 4; attempt++ {
		slot := 0
		if w.s.queues[w.sticky[1]].top.Load() < w.s.queues[w.sticky[0]].top.Load() {
			slot = 1
		}
		q := &w.s.queues[w.sticky[slot]]
		if q.top.Load() == pq.InfPriority {
			// Both cached tops are infinite: the pair looks drained.
			w.resample()
			continue
		}
		if !q.mu.TryLock() {
			w.c.LockFails++
			w.resampleSlot(slot)
			continue
		}
		w.delBuf = q.popBatch(w.s.cfg.DeleteBuffer, w.delBuf[:0])
		q.mu.Unlock()
		if len(w.delBuf) > 0 {
			return true
		}
		w.resample()
	}
	return w.sweepRefill()
}

// sweepRefill scans every queue once from a random start and fills the
// deletion buffer from the first non-empty one. It returns false only
// when every queue was observed empty.
//
// The first pass uses try-locks (counting failures in LockFails) so the
// cold path never blocks behind a queue busy serving other workers;
// queues skipped by the first pass are re-visited with a blocking lock,
// preserving the every-queue-observed guarantee.
func (w *worker[T]) sweepRefill() bool {
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
		w.delBuf = q.popBatch(w.s.cfg.DeleteBuffer, w.delBuf[:0])
		q.mu.Unlock()
		if len(w.delBuf) > 0 {
			return true
		}
	}
	for _, qi := range w.sweepSkip {
		q := &w.s.queues[qi]
		q.mu.Lock()
		w.delBuf = q.popBatch(w.s.cfg.DeleteBuffer, w.delBuf[:0])
		q.mu.Unlock()
		if len(w.delBuf) > 0 {
			return true
		}
	}
	return false
}
