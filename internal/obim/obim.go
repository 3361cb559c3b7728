// Package obim implements the OBIM (Ordered By Integer Metric) scheduler
// of Nguyen, Lenharth and Pingali [20] and its adaptive PMOD extension by
// Yesil et al. [27] — the two scheduling heuristics the paper compares
// the SMQ against (§5, Appendix B).
//
// # OBIM
//
// Tasks are grouped into priority "bags": all tasks whose priority maps
// to the same bucket (priority >> Delta) are unordered relative to each
// other. A bag holds chunks — fixed-size task batches — in one FIFO
// queue. (Galois keeps one such queue per socket and steals chunks
// across sockets; this implementation follows no socket topology, so a
// bag has one queue and there is no chunk stealing.) As in Galois, a
// worker keeps one open push chunk per bag it pushes to, in its local
// mirror of the bag map: a push appends to its bucket's open chunk, and
// only a full chunk is published, at the tail of its bag. Workers drain
// a thread-local pop chunk taken from the head of the lowest non-empty
// bag. A global "minimum bucket" hint steers workers toward the best
// available priority class.
//
// An open chunk is its owner's alone. A refill serves the lower of the
// lowest published chunk and the owner's lowest-keyed open chunk, the
// published one on a tie, so a worker takes its own tasks back in
// priority order and reports empty only when it holds none. A worker
// with a single open chunk would publish it on every bucket change: at
// small Delta a scattered relaxation pushes one-item chunks, and the
// bags turn into a list of single tasks behind a lock each.
//
// The chunk order is the scheduler's rank quality inside a bucket: a bag
// that hands out its newest chunk first turns one bucket into depth-first
// label correcting (on a power-law SSSP, ten times Dijkstra's tasks at
// the default Delta), oldest-first keeps it breadth-first. Chunks are
// recycled, not allocated: the worker that drains one keeps it on a small
// free list and fills it again as its next open chunk.
//
// OBIM's weakness — the reason the paper's SMQ beats it on SSSP-like
// workloads — is that Delta is workload-specific: too coarse wastes work
// on priority inversions, too fine empties the bags and serializes
// workers on the global map (Appendix B's Δ×chunk grids).
//
// # PMOD
//
// PMOD adapts Delta at runtime: when bags observed at refill time are
// nearly empty it merges priority classes (Delta+1); when bags grow far
// beyond the chunk size it splits them (Delta−1). Bags are keyed by the
// *range start* of their priority interval, (p>>Δ)<<Δ, so keys remain
// mutually ordered as Δ changes and old bags drain naturally. A worker
// taking back its own open chunk observes a bag of that chunk's length.
//
// Neither scheduler provides rank guarantees; both are included as
// faithful-in-structure baselines for the evaluation harness.
package obim

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/contend"
	"repro/internal/pq"
	"repro/internal/sched"
)

// Config parameterizes OBIM and PMOD.
type Config struct {
	// Workers is the number of worker slots. Required.
	Workers int
	// Delta is the priority shift defining buckets (bucket = p >> Delta).
	// Default 10; Appendix B sweeps it per benchmark. Measured with SSSP
	// at W = 2 on two vCPUs, Delta = 1 / 2 / 4 / 6 / 10 ran RMAT-16/16 at
	// 6.1 / 6.0 / 6.2 / 7.7 / 10.4 M useful tasks/s and a 400 × 400 road
	// grid at 6.3 / 8.1 / 10.8 / 14.1 / 18.2 (one open push chunk per
	// worker in all, not per bag: RMAT 0.8 / 0.7 / 0.9 / 1.8 / 10.3).
	Delta uint32
	// ChunkSize is the number of tasks per chunk. Default 64 (Galois).
	ChunkSize int
	// Adaptive enables PMOD's dynamic Delta adjustment.
	Adaptive bool
	// AdaptInterval is the number of pops between PMOD adaptation checks
	// on the leader worker. Default 2048.
	AdaptInterval int
	// PruneBags bounds the global bag map: when the number of bags
	// reaches this threshold, drained bags are retired and removed so
	// long runs (or PMOD's shifting Δ) cannot leak memory. Default 4096.
	PruneBags int
}

// Validate reports whether the configuration can build a scheduler:
// Workers must be positive, Delta a shift within a 64-bit priority
// (<= 63), and every set field within its documented domain (zero
// values select defaults). New panics with exactly this error on an
// invalid configuration, so callers that must not panic validate first.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("obim: Config.Workers = %d, must be positive", c.Workers)
	}
	if c.Delta > 63 {
		return fmt.Errorf("obim: Config.Delta = %d, must be <= 63 (a 64-bit priority shift)", c.Delta)
	}
	if c.ChunkSize < 0 {
		return fmt.Errorf("obim: Config.ChunkSize = %d, must be >= 0", c.ChunkSize)
	}
	if c.AdaptInterval < 0 {
		return fmt.Errorf("obim: Config.AdaptInterval = %d, must be >= 0", c.AdaptInterval)
	}
	if c.PruneBags < 0 || c.PruneBags == 1 {
		return fmt.Errorf("obim: Config.PruneBags = %d, must be 0 (default) or >= 2", c.PruneBags)
	}
	return nil
}

// WithDefaults returns a copy with every zero-valued field replaced by
// its documented default. Construction applies it after Validate.
func (c Config) WithDefaults() Config {
	if c.Delta == 0 {
		c.Delta = 10
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 64
	}
	if c.AdaptInterval == 0 {
		c.AdaptInterval = 2048
	}
	if c.PruneBags == 0 {
		c.PruneBags = 4096
	}
	return c
}

func (c *Config) normalize() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	*c = c.WithDefaults()
}

// chunk is a batch of same-bucket tasks. Chunks move between workers as a
// unit; items are drained LIFO (order inside a chunk is irrelevant). A
// chunk has one owner at a time — the worker filling it, the bag queue it
// is linked in, the worker draining it, that worker's free list — so the
// queue mutex is all that synchronizes it.
type chunk[T any] struct {
	items []pq.Item[T]
	next  *chunk[T]
}

// chunkQueue is a bag's FIFO of chunks, padded to exactly one cache
// line so that the bag's size counter after it, which every publish and
// refill adds to, never shares a line with the queue's mutex.
type chunkQueue[T any] struct {
	mu   sync.Mutex
	head *chunk[T] // oldest chunk, the next one served
	tail *chunk[T] // newest chunk; meaningful only while head != nil
	_    [contend.CacheLineSize - 24]byte
}

func (q *chunkQueue[T]) pop() *chunk[T] {
	q.mu.Lock()
	c := q.head
	if c != nil {
		q.head = c.next
		c.next = nil
	}
	q.mu.Unlock()
	return c
}

// bag holds every task of one priority class.
type bag[T any] struct {
	q    chunkQueue[T] // first, so its mutex starts the bag's first line
	key  uint64        // priority-range start: (p>>Δ)<<Δ at creation time
	size atomic.Int64  // approximate task count, drives PMOD
	// retired is set (under the queue lock) when the pruner removes the
	// bag from the global map; no chunk may be added afterwards.
	retired atomic.Bool
}

// pushChunk links c at the tail of the bag's queue, unless the bag has
// been retired — the check happens under the queue lock, which is the
// same lock the pruner holds while retiring, so a chunk can never land
// in a dropped bag.
func (b *bag[T]) pushChunk(c *chunk[T]) bool {
	q := &b.q
	q.mu.Lock()
	if b.retired.Load() {
		q.mu.Unlock()
		return false
	}
	if q.head == nil {
		q.head = c
	} else {
		q.tail.next = c
	}
	q.tail = c
	q.mu.Unlock()
	return true
}

// Sched is the OBIM/PMOD scheduler.
type Sched[T any] struct {
	cfg Config

	// delta is PMOD's current Δ: every PMOD Push loads it, only the
	// leader stores it, so it gets a line of its own, away from the
	// mutex, the hint and the statistics that refills write.
	_     [contend.CacheLineSize]byte
	delta atomic.Uint32
	_     [contend.CacheLineSize]byte

	mu   sync.RWMutex
	bags map[uint64]*bag[T]
	keys []uint64 // sorted bag keys

	minHint atomic.Uint64 // lower bound candidate for lowest non-empty key

	// PMOD statistics window, written only when Adaptive.
	refills    atomic.Uint64
	sumBagSize atomic.Uint64

	deltaUps   atomic.Uint64
	deltaDowns atomic.Uint64
	pruned     atomic.Uint64

	workers  []worker[T]
	counters []sched.Counters
}

// New builds an OBIM scheduler (or PMOD when cfg.Adaptive).
func New[T any](cfg Config) *Sched[T] {
	cfg.normalize()
	s := &Sched[T]{
		cfg:      cfg,
		bags:     make(map[uint64]*bag[T]),
		workers:  make([]worker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	s.delta.Store(cfg.Delta)
	s.minHint.Store(^uint64(0))
	for i := range s.workers {
		s.workers[i] = worker[T]{s: s, id: i, c: &s.counters[i]}
	}
	return s
}

// Workers reports the number of worker slots.
func (s *Sched[T]) Workers() int { return s.cfg.Workers }

// Worker returns the handle for worker w.
func (s *Sched[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("obim: worker index %d out of range [0,%d)", w, len(s.workers)))
	}
	return &s.workers[w]
}

// Stats aggregates counters; call only after workers quiesce.
func (s *Sched[T]) Stats() sched.Stats { return sched.SumCounters(s.counters) }

// Delta returns the current bucket shift (changes over time under PMOD).
func (s *Sched[T]) Delta() uint32 { return s.delta.Load() }

// DeltaAdjustments reports how often PMOD merged (up) and split (down).
func (s *Sched[T]) DeltaAdjustments() (up, down uint64) {
	return s.deltaUps.Load(), s.deltaDowns.Load()
}

// bucketKey maps a priority to its bag key under the current Δ. Only
// PMOD changes Δ, so OBIM reads it from the immutable configuration.
func (s *Sched[T]) bucketKey(p uint64) uint64 {
	d := s.cfg.Delta
	if s.cfg.Adaptive {
		d = s.delta.Load()
	}
	return p >> d << d
}

// bagFor returns (creating if needed) the bag for key.
func (s *Sched[T]) bagFor(key uint64) *bag[T] {
	s.mu.RLock()
	b := s.bags[key]
	s.mu.RUnlock()
	if b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b = s.bags[key]; b != nil {
		return b
	}
	if len(s.bags) >= s.cfg.PruneBags {
		s.pruneLocked()
	}
	b = &bag[T]{key: key}
	s.bags[key] = b
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
	s.keys = append(s.keys, 0)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
	return b
}

// pruneLocked retires and removes every fully drained bag. Caller holds
// the write lock. Each candidate's queue lock is taken; only if its
// queue is empty is the bag retired — pushChunk checks the retired flag
// under the same lock, so no task can slip into a retired bag.
func (s *Sched[T]) pruneLocked() {
	keep := s.keys[:0]
	for _, key := range s.keys {
		b := s.bags[key]
		b.q.mu.Lock()
		if b.q.head == nil {
			b.retired.Store(true)
			delete(s.bags, key)
			s.pruned.Add(1)
		} else {
			keep = append(keep, key)
		}
		b.q.mu.Unlock()
	}
	// keep reuses s.keys' backing array; clear the tail for GC hygiene.
	tail := s.keys[len(keep):]
	for i := range tail {
		tail[i] = 0
	}
	s.keys = keep
}

// PrunedBags reports how many drained bags have been removed.
func (s *Sched[T]) PrunedBags() uint64 { return s.pruned.Load() }

// BagCount reports the current number of live bags.
func (s *Sched[T]) BagCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bags)
}

// lowerHint lowers the global minimum-bucket hint to key if it improves it.
func (s *Sched[T]) lowerHint(key uint64) {
	for {
		cur := s.minHint.Load()
		if key >= cur || s.minHint.CompareAndSwap(cur, key) {
			return
		}
	}
}

// raiseHint raises the hint from the previously observed value — only if
// nobody lowered it meanwhile (a failed CAS means new better work exists).
func (s *Sched[T]) raiseHint(from, to uint64) {
	if to > from {
		s.minHint.CompareAndSwap(from, to)
	}
}

// freeChunks bounds a worker's free list: enough to reopen a chunk for
// each bucket a run of pushes touches between two refills; what a worker
// drains beyond it is left to the GC.
const freeChunks = 64

// localBag is a worker's entry for one bag key: the global bag it
// resolved for the key, and the worker's open push chunk for it.
type localBag[T any] struct {
	key  uint64
	b    *bag[T]   // possibly retired since; re-resolved when a chunk is published
	open *chunk[T] // nil, or 1..ChunkSize-1 tasks only this worker can see
	at   int       // index in the worker's openHeap while open != nil
}

// openHeap is a min-heap on key (through container/heap) of the entries
// holding an open chunk, so a refill reads the worker's lowest open key
// in O(1) and a published chunk leaves it from anywhere.
type openHeap[T any] []*localBag[T]

func (h openHeap[T]) Len() int           { return len(h) }
func (h openHeap[T]) Less(i, j int) bool { return h[i].key < h[j].key }
func (h openHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}

func (h *openHeap[T]) Push(x any) {
	lb := x.(*localBag[T])
	lb.at = len(*h)
	*h = append(*h, lb)
}

func (h *openHeap[T]) Pop() any {
	s := *h
	lb := s[len(s)-1]
	s[len(s)-1] = nil
	*h = s[:len(s)-1]
	return lb
}

// worker is the per-goroutine handle. Workers are adjacent in one slice
// and every field below c is written per task, hence the trailing pad.
type worker[T any] struct {
	s  *Sched[T]
	id int
	c  *sched.Counters

	// bags mirrors the global map for the keys this worker pushes to
	// (OBIM's "global map mirrored locally for cache efficiency") and
	// holds the worker's open push chunk per key; open lists the entries
	// that have one. Both are allocated on first use.
	bags map[uint64]*localBag[T]
	open openHeap[T]

	push *localBag[T] // entry last pushed to; its chunk may be closed
	pop  *chunk[T]    // chunk being drained, nil before the first refill

	free  *chunk[T] // drained chunks (all slots zero), linked through next
	nfree int

	popsSinceAdapt int

	_ [contend.CacheLineSize]byte
}

// Push appends the task to the worker's open chunk for its bucket. A
// push to the bucket pushed to last finds its entry without a lookup; a
// push to another bucket looks its entry up in the mirror, and the chunk
// of the bucket it leaves stays open. Only a full chunk is published.
func (w *worker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	key := w.s.bucketKey(p)
	lb := w.push
	if lb == nil || lb.key != key {
		lb = w.localBag(key)
		w.push = lb
	}
	c := lb.open
	if c == nil {
		c = w.takeChunk()
		lb.open = c
		heap.Push(&w.open, lb)
	}
	c.items = append(c.items, pq.Item[T]{P: p, V: v})
	if len(c.items) >= w.s.cfg.ChunkSize {
		w.flushPush()
	}
}

// takeChunk returns an empty chunk: the last one this worker drained, or
// a new one when the free list is empty.
func (w *worker[T]) takeChunk() *chunk[T] {
	c := w.free
	if c == nil {
		return &chunk[T]{items: make([]pq.Item[T], 0, w.s.cfg.ChunkSize)}
	}
	w.free = c.next
	c.next = nil
	w.nfree--
	return c
}

// PushN / PopN use the generic scalar fallbacks: OBIM already moves
// tasks in chunk-sized batches internally (a chunk is published when it
// fills, the pop chunk is refilled per bag grab), so an extra batching
// layer on top would only re-buffer already-buffered work.
func (w *worker[T]) PushN(ps []uint64, vs []T) { sched.PushNLoop[T](w, ps, vs) }

func (w *worker[T]) PopN(dst []sched.Task[T]) int { return sched.PopNLoop[T](w, dst) }

// localBag returns the worker's entry for key, resolving the bag through
// the global map when the key is new to the mirror.
func (w *worker[T]) localBag(key uint64) *localBag[T] {
	if lb := w.bags[key]; lb != nil {
		return lb
	}
	if w.bags == nil {
		w.bags = make(map[uint64]*localBag[T])
	} else if len(w.bags) >= max(w.s.cfg.PruneBags, 2*len(w.open)) {
		// The mirror must not outgrow the global map: drop the entries
		// without an open chunk. The bound grows with the open chunks,
		// which must stay, so a sweep frees at least as many as it keeps.
		for k, lb := range w.bags {
			if lb.open == nil && lb != w.push {
				delete(w.bags, k)
			}
		}
	}
	lb := &localBag[T]{key: key, b: w.s.bagFor(key)}
	w.bags[key] = lb
	return lb
}

// closeOpen takes lb's open chunk out of the worker's open set.
func (w *worker[T]) closeOpen(lb *localBag[T]) *chunk[T] {
	c := lb.open
	lb.open = nil
	heap.Remove(&w.open, lb.at)
	return c
}

// flushPush publishes the full push chunk at the tail of its bag,
// re-resolving the bag through the global map if the pruner retired it.
func (w *worker[T]) flushPush() {
	lb := w.push
	c := w.closeOpen(lb)
	n := int64(len(c.items)) // c is another worker's once it is linked
	for !lb.b.pushChunk(c) {
		// Retired since the entry resolved it: the global map has a
		// live bag for the key, or makes one.
		lb.b = w.s.bagFor(lb.key)
	}
	lb.b.size.Add(n)
	w.s.lowerHint(lb.key)
}

// Pop drains the worker's pop chunk and refills it when exhausted. It
// reports empty only when the worker holds no open chunk: a refill that
// finds no published chunk takes back the worker's own.
func (w *worker[T]) Pop() (uint64, T, bool) {
	if w.s.cfg.Adaptive {
		w.maybeAdapt()
	}
	for {
		if c := w.pop; c != nil {
			if n := len(c.items); n > 0 {
				it := c.items[n-1]
				// Zeroed as drained: a recycled chunk holds no payload.
				c.items[n-1] = pq.Item[T]{}
				c.items = c.items[:n-1]
				w.c.Pops++
				return it.P, it.V, true
			}
		}
		// Full scan ignoring the hint: the hint may legitimately have
		// been raised past a racing push (see raiseHint).
		if !w.refill(false) && !w.refill(true) {
			w.c.EmptyPops++
			var zero T
			return pq.InfPriority, zero, false
		}
	}
}

// refill replaces the pop chunk with the lower of two candidates, a
// published chunk winning a tie: the oldest chunk of the lowest
// non-empty bag, scanning keys in ascending order from the hint (or from
// zero when full is set), and the worker's lowest-keyed open chunk,
// which it finds by key wherever the hint is and whether or not its bag
// was retired. The replaced chunk goes to the free list.
func (w *worker[T]) refill(full bool) bool {
	s := w.s
	hintBefore := s.minHint.Load()
	start := hintBefore
	if full {
		start = 0
	}
	var own *localBag[T]
	if len(w.open) > 0 {
		own = w.open[0]
	}

	s.mu.RLock()
	keys := s.keys
	idx := sort.Search(len(keys), func(i int) bool { return keys[i] >= start })
	for ; idx < len(keys) && (own == nil || keys[idx] <= own.key); idx++ {
		b := s.bags[keys[idx]]
		if c := b.q.pop(); c != nil {
			// Capture the key before unlocking: bagFor mutates the keys
			// backing array in place under the write lock.
			key := keys[idx]
			s.mu.RUnlock()
			b.size.Add(-int64(len(c.items)))
			if s.cfg.Adaptive {
				// Record the observed bag occupancy at refill time;
				// these samples drive PMOD's merge/split decisions.
				sz := max(b.size.Load(), 0)
				s.sample(uint64(sz) + uint64(len(c.items)))
			}
			w.swapPop(c)
			s.raiseHint(hintBefore, key)
			return true
		}
	}
	s.mu.RUnlock()
	if own == nil {
		return false
	}
	c := w.closeOpen(own)
	if s.cfg.Adaptive {
		// The chunk is all the worker sees of its bag.
		s.sample(uint64(len(c.items)))
	}
	w.swapPop(c)
	// Every bag from the hint up to own.key was empty when scanned.
	s.raiseHint(hintBefore, own.key)
	return true
}

// swapPop makes c the pop chunk and recycles the drained one it replaces.
func (w *worker[T]) swapPop(c *chunk[T]) {
	if old := w.pop; old != nil && w.nfree < freeChunks {
		old.next = w.free
		w.free = old
		w.nfree++
	}
	w.pop = c
}

// sample records one refill's bag occupancy for PMOD.
func (s *Sched[T]) sample(size uint64) {
	s.refills.Add(1)
	s.sumBagSize.Add(size)
}

// maybeAdapt runs PMOD's Δ adjustment on the leader worker: merge
// (Δ+1) when refilled bags are nearly empty — workers are starving on
// fine-grained priority classes — and split (Δ−1) when bags balloon far
// beyond the chunk size, which destroys priority order.
func (w *worker[T]) maybeAdapt() {
	w.popsSinceAdapt++
	if w.id != 0 || w.popsSinceAdapt < w.s.cfg.AdaptInterval {
		return
	}
	w.popsSinceAdapt = 0
	s := w.s
	refills := s.refills.Swap(0)
	sum := s.sumBagSize.Swap(0)
	if refills == 0 {
		return
	}
	avg := float64(sum) / float64(refills)
	chunk := float64(s.cfg.ChunkSize)
	d := s.delta.Load()
	switch {
	case avg < chunk && d < 62:
		// Bags drain in under one chunk: classes too fine → merge.
		s.delta.Store(d + 1)
		s.deltaUps.Add(1)
	case avg > chunk*64 && d > 0:
		// Bags far exceed a chunk: classes too coarse → split.
		s.delta.Store(d - 1)
		s.deltaDowns.Add(1)
	}
}
