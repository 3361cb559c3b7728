// Package obim implements the OBIM (Ordered By Integer Metric) scheduler
// of Nguyen, Lenharth and Pingali [20] and its adaptive PMOD extension by
// Yesil et al. [27] — the two scheduling heuristics the paper compares
// the SMQ against (§5, Appendix B).
//
// # OBIM
//
// Tasks are grouped into priority "bags": all tasks whose priority maps
// to the same bucket (priority >> Delta) are unordered relative to each
// other. A bag holds chunks — fixed-size task batches — on one stack per
// virtual NUMA node. Workers fill a thread-local push chunk and publish
// it to the bag for its bucket; they drain a thread-local pop chunk taken
// from the lowest non-empty bag, preferring their own node's stack and
// stealing chunks from other nodes otherwise. A global "minimum bucket"
// hint steers workers toward the best available priority class.
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
// mutually ordered as Δ changes and old bags drain naturally.
//
// Neither scheduler provides rank guarantees; both are included as
// faithful-in-structure baselines for the evaluation harness.
package obim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// Config parameterizes OBIM and PMOD.
type Config struct {
	// Workers is the number of worker slots. Required.
	Workers int
	// Delta is the priority shift defining buckets (bucket = p >> Delta).
	// Default 10; Appendix B sweeps it per benchmark.
	Delta uint32
	// ChunkSize is the number of tasks per chunk. Default 64 (Galois).
	ChunkSize int
	// Adaptive enables PMOD's dynamic Delta adjustment.
	Adaptive bool
	// AdaptInterval is the number of pops between PMOD adaptation checks
	// on the leader worker. Default 2048.
	AdaptInterval int
	// NUMANodes is the number of virtual sockets for per-node chunk
	// stacks. Default 1.
	NUMANodes int
	// PruneBags bounds the global bag map: when the number of bags
	// reaches this threshold, drained bags are retired and removed so
	// long runs (or PMOD's shifting Δ) cannot leak memory. Default 4096.
	PruneBags int
	// Seed makes runs reproducible.
	Seed uint64
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
	if c.NUMANodes < 0 {
		return fmt.Errorf("obim: Config.NUMANodes = %d, must be >= 0", c.NUMANodes)
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
	if c.NUMANodes < 1 {
		c.NUMANodes = 1
	}
	if c.PruneBags == 0 {
		c.PruneBags = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
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
// unit; items are drained LIFO (order inside a bag is irrelevant).
type chunk[T any] struct {
	items []pq.Item[T]
	next  *chunk[T]
}

// chunkStack is one NUMA node's stack of a bag's chunks.
type chunkStack[T any] struct {
	mu  sync.Mutex
	top *chunk[T]
	_   [40]byte
}

func (s *chunkStack[T]) pop() *chunk[T] {
	s.mu.Lock()
	c := s.top
	if c != nil {
		s.top = c.next
		c.next = nil
	}
	s.mu.Unlock()
	return c
}

// bag holds every task of one priority class.
type bag[T any] struct {
	key    uint64 // priority-range start: (p>>Δ)<<Δ at creation time
	stacks []chunkStack[T]
	size   atomic.Int64 // approximate task count, drives PMOD
	// retired is set (under all stack locks) when the pruner removes
	// the bag from the global map; no chunk may be added afterwards.
	retired atomic.Bool
}

// pushChunk links c onto the bag's stack for node, unless the bag has
// been retired — the check happens under the stack lock, which is the
// same lock the pruner holds while retiring, so a chunk can never land
// in a dropped bag.
func (b *bag[T]) pushChunk(node int, c *chunk[T]) bool {
	st := &b.stacks[node]
	st.mu.Lock()
	if b.retired.Load() {
		st.mu.Unlock()
		return false
	}
	c.next = st.top
	st.top = c
	st.mu.Unlock()
	return true
}

// Sched is the OBIM/PMOD scheduler.
type Sched[T any] struct {
	cfg  Config
	topo numa.Topology

	mu   sync.RWMutex
	bags map[uint64]*bag[T]
	keys []uint64 // sorted bag keys

	minHint atomic.Uint64 // lower bound candidate for lowest non-empty key
	delta   atomic.Uint32 // current Δ (mutable only when Adaptive)

	// PMOD statistics window.
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
		topo:     numa.New(cfg.Workers, cfg.NUMANodes, 1),
		bags:     make(map[uint64]*bag[T]),
		workers:  make([]worker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	s.delta.Store(cfg.Delta)
	s.minHint.Store(^uint64(0))
	for i := range s.workers {
		s.workers[i] = worker[T]{
			s:    s,
			id:   i,
			node: s.topo.NodeOfWorker(i),
			rng:  xrand.New(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15),
			c:    &s.counters[i],
			bags: make(map[uint64]*bag[T]),
		}
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

// bucketKey maps a priority to its bag key under the current Δ.
func (s *Sched[T]) bucketKey(p uint64) uint64 {
	d := s.delta.Load()
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
	b = &bag[T]{key: key, stacks: make([]chunkStack[T], s.topo.Nodes)}
	s.bags[key] = b
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
	s.keys = append(s.keys, 0)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
	return b
}

// pruneLocked retires and removes every fully drained bag. Caller holds
// the write lock. For each candidate, all of its stack locks are taken;
// only if every stack is empty is the bag retired — pushChunk checks the
// retired flag under the same stack lock, so no task can slip into a
// retired bag.
func (s *Sched[T]) pruneLocked() {
	keep := s.keys[:0]
	for _, key := range s.keys {
		b := s.bags[key]
		for i := range b.stacks {
			b.stacks[i].mu.Lock()
		}
		empty := true
		for i := range b.stacks {
			if b.stacks[i].top != nil {
				empty = false
				break
			}
		}
		if empty {
			b.retired.Store(true)
			delete(s.bags, key)
			s.pruned.Add(1)
		} else {
			keep = append(keep, key)
		}
		for i := len(b.stacks) - 1; i >= 0; i-- {
			b.stacks[i].mu.Unlock()
		}
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

// worker is the per-goroutine handle.
type worker[T any] struct {
	s    *Sched[T]
	id   int
	node int
	rng  *xrand.Rand
	c    *sched.Counters

	bags map[uint64]*bag[T] // thread-local bag cache (mirrors the global map)

	pushKey   uint64
	pushChunk []pq.Item[T]

	popKey   uint64
	popChunk []pq.Item[T]

	popsSinceAdapt int
}

// Push buffers the task in the worker's current push chunk, publishing
// the chunk when the bucket changes or the chunk fills up.
func (w *worker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	key := w.s.bucketKey(p)
	if len(w.pushChunk) > 0 && (key != w.pushKey || len(w.pushChunk) >= w.s.cfg.ChunkSize) {
		w.flushPush()
	}
	if len(w.pushChunk) == 0 {
		w.pushKey = key
		if w.pushChunk == nil {
			w.pushChunk = make([]pq.Item[T], 0, w.s.cfg.ChunkSize)
		}
	}
	w.pushChunk = append(w.pushChunk, pq.Item[T]{P: p, V: v})
	if len(w.pushChunk) >= w.s.cfg.ChunkSize {
		w.flushPush()
	}
}

// PushN / PopN use the generic scalar fallbacks: OBIM already moves
// tasks in chunk-sized batches internally (the push chunk is flushed
// per bucket, the pop chunk is refilled per bag grab), so an extra
// batching layer on top would only re-buffer already-buffered work.
func (w *worker[T]) PushN(ps []uint64, vs []T) { sched.PushNLoop[T](w, ps, vs) }

func (w *worker[T]) PopN(dst []sched.Task[T]) int { return sched.PopNLoop[T](w, dst) }

// cachedBag resolves a bag key through the thread-local mirror first
// (OBIM's "global map mirrored locally for cache efficiency"), dropping
// entries the pruner has retired.
func (w *worker[T]) cachedBag(key uint64) *bag[T] {
	if b, ok := w.bags[key]; ok {
		if !b.retired.Load() {
			return b
		}
		delete(w.bags, key)
	}
	b := w.s.bagFor(key)
	if len(w.bags) >= w.s.cfg.PruneBags {
		// The thread-local mirror must not outgrow the global map.
		clear(w.bags)
	}
	w.bags[key] = b
	return b
}

// flushPush publishes the open push chunk to its bag, retrying through
// the global map if the cached bag was retired under us.
func (w *worker[T]) flushPush() {
	if len(w.pushChunk) == 0 {
		return
	}
	c := &chunk[T]{items: w.pushChunk}
	for {
		b := w.cachedBag(w.pushKey)
		if b.pushChunk(w.node, c) {
			b.size.Add(int64(len(c.items)))
			break
		}
		// Retired between lookup and push: refresh and retry.
		delete(w.bags, w.pushKey)
	}
	w.s.lowerHint(w.pushKey)
	w.pushChunk = make([]pq.Item[T], 0, w.s.cfg.ChunkSize)
}

// Pop drains the worker's pop chunk, refilling it from the lowest
// non-empty bag when exhausted.
func (w *worker[T]) Pop() (uint64, T, bool) {
	if w.s.cfg.Adaptive {
		w.maybeAdapt()
	}
	for {
		if n := len(w.popChunk); n > 0 {
			it := w.popChunk[n-1]
			var zero pq.Item[T]
			w.popChunk[n-1] = zero
			w.popChunk = w.popChunk[:n-1]
			w.c.Pops++
			return it.P, it.V, true
		}
		if !w.refill(false) {
			// Our own unpublished push chunk may hold the only work.
			if len(w.pushChunk) > 0 {
				w.flushPush()
				continue
			}
			// Full scan ignoring the hint: the hint may legitimately
			// have been raised past a racing push (see raiseHint).
			if !w.refill(true) {
				w.c.EmptyPops++
				var zero T
				return pq.InfPriority, zero, false
			}
		}
	}
}

// refill grabs a chunk from the lowest non-empty bag, scanning keys in
// ascending order starting from the hint (or from zero when full is set).
func (w *worker[T]) refill(full bool) bool {
	s := w.s
	start := uint64(0)
	if !full {
		start = s.minHint.Load()
	}
	hintBefore := s.minHint.Load()

	s.mu.RLock()
	keys := s.keys
	idx := sort.Search(len(keys), func(i int) bool { return keys[i] >= start })
	for ; idx < len(keys); idx++ {
		b := s.bags[keys[idx]]
		c := b.stacks[w.node].pop()
		if c == nil {
			// Steal a chunk from another node's stack.
			for off := 1; off < len(b.stacks); off++ {
				n := w.node + off
				if n >= len(b.stacks) {
					n -= len(b.stacks)
				}
				if c = b.stacks[n].pop(); c != nil {
					w.c.Steals++
					w.c.StolenTask += uint64(len(c.items))
					w.c.Remote++
					break
				}
			}
		}
		if c != nil {
			// Capture the key before unlocking: bagFor mutates the keys
			// backing array in place under the write lock.
			key := keys[idx]
			s.mu.RUnlock()
			b.size.Add(-int64(len(c.items)))
			// Record the observed bag occupancy at refill time; these
			// samples drive PMOD's merge/split decisions.
			w.popKey = key
			s.refills.Add(1)
			sz := b.size.Load()
			if sz < 0 {
				sz = 0
			}
			s.sumBagSize.Add(uint64(sz) + uint64(len(c.items)))
			w.popChunk = c.items
			s.raiseHint(hintBefore, key)
			return true
		}
	}
	s.mu.RUnlock()
	return false
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
