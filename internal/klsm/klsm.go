// Package klsm implements the k-LSM relaxed priority queue of Wimmer,
// Gruber, Träff and Tsigas ("The Lock-Free k-LSM Relaxed Priority
// Queue", PPoPP 2015) — the strongest published baseline of the SMQ
// paper's lineup that is not a Multi-Queue derivative. Where the
// Multi-Queue family relaxes by sampling among many heaps, the k-LSM
// relaxes by buffering: it is a log-structured merge (LSM) data
// structure whose relaxation is an explicit capacity bound.
//
// # Local/global LSM split
//
// Every worker owns a thread-local LSM: a short list of sorted blocks
// whose live sizes decrease geometrically front to back. An insert
// appends a singleton block and merges trailing blocks while the last
// is at least as large as its predecessor — the classic LSM discipline,
// amortized O(log k) comparisons per insert, entirely lock- and
// atomics-free because the structure is single-owner.
//
// The local LSM may hold at most k = Config.Relaxation tasks. When an
// insert overflows the bound, the largest local blocks are spilled —
// as whole sorted blocks, under one lock acquisition — into the shared
// global LSM, which all workers' overflow feeds. Spilling whole blocks
// is what makes the LSM layout pay off: the global merge consumes a
// sorted run in O(block) instead of re-heapifying item by item. The
// global LSM caches its minimum priority in an atomic word so that
// DeleteMin can compare against it without taking the lock.
//
// # Relaxed DeleteMin and the rank-error bound
//
// Pop inspects the two minima this worker can see: its local LSM's
// minimum and the global LSM's cached minimum. If the local minimum is
// at least as good, it is removed without any synchronization;
// otherwise the global minimum is removed under the global lock. A
// local removal may therefore skip tasks that are globally better but
// live in other workers' local LSMs: at most k per other worker, so a
// returned task is, at removal time, no worse than rank
// (P−1)·k + P with P workers (the additive P covers tasks already
// removed but still being processed). Relaxation = Strict (k = 0)
// forces every insert straight into the global LSM and every delete
// through the global lock, degenerating to an exact, strictly ordered
// queue — the same semantics as the coarse-locked baseline — which
// pins the relaxed configurations' behaviour in tests.
//
// Pop may also spuriously report emptiness while tasks sit in other
// workers' local LSMs; algorithms handle this with the sched.Pending
// protocol, and a worker can always recover its own buffered tasks.
package klsm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/contend"
	"repro/internal/pq"
	"repro/internal/sched"
)

// Strict is the Relaxation value selecting the exact k = 0
// configuration: no local buffering, every operation on the global LSM,
// strict priority order. (The zero Relaxation value selects the relaxed
// default instead, following this module's zero-value-default
// convention.)
const Strict = -1

// DefaultRelaxation is the local-LSM capacity used when
// Config.Relaxation is zero (k = 256, the k-LSM paper's headline
// configuration).
const DefaultRelaxation = 256

// Config parameterizes the k-LSM scheduler.
type Config struct {
	// Workers is the number of worker slots. Required.
	Workers int
	// Relaxation is k, the maximum number of tasks a worker's local LSM
	// may hold — and therefore the per-worker bound on how many better
	// tasks a relaxed DeleteMin may skip. Zero selects
	// DefaultRelaxation; Strict selects the exact k = 0 configuration;
	// any other negative value is invalid.
	Relaxation int
}

// Validate reports whether the configuration can build a scheduler:
// Workers must be positive and Relaxation must be Strict, zero
// (default) or a positive k. New panics with exactly this error on an
// invalid configuration, so callers that must not panic validate first.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("klsm: Config.Workers = %d, must be positive", c.Workers)
	}
	if c.Relaxation < Strict {
		return fmt.Errorf("klsm: Config.Relaxation = %d, must be Strict (%d), 0 (default) or positive",
			c.Relaxation, Strict)
	}
	return nil
}

// WithDefaults returns a copy with the zero Relaxation replaced by
// DefaultRelaxation and the Strict sentinel resolved to the exact
// k = 0 configuration. Construction applies it after Validate.
func (c Config) WithDefaults() Config {
	if c.Relaxation == 0 {
		c.Relaxation = DefaultRelaxation
	}
	if c.Relaxation < 0 {
		c.Relaxation = 0
	}
	return c
}

func (c *Config) normalize() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	*c = c.WithDefaults()
}

// block is one sorted run of an LSM: items[head:] are live, ascending
// by priority.
type block[T any] struct {
	items []pq.Item[T]
	head  int
}

func (b *block[T]) size() int { return len(b.items) - b.head }

func (b *block[T]) top() uint64 {
	if b.head >= len(b.items) {
		return pq.InfPriority
	}
	return b.items[b.head].P
}

// maxFreeBlocks bounds each LSM's block pool. Merging two blocks frees
// two and allocates one, so a small pool absorbs the whole steady-state
// churn; anything beyond it is released to the GC.
const maxFreeBlocks = 8

// lsm is a log-structured merge structure: blocks ordered oldest (and
// largest) first, live sizes decreasing geometrically. It is not
// synchronized; the local LSMs are single-owner and the global LSM
// wraps one behind a mutex.
//
// Merged-away blocks are recycled through a per-LSM slab pool instead
// of being dropped to the allocator: every Push creates a singleton
// block and the merge discipline constantly retires blocks, which made
// the merge path the repository's only steady-state allocation site
// (~3 allocs per insert). Pools are per-LSM, so recycling needs no
// synchronization beyond what already guards the LSM itself.
type lsm[T any] struct {
	blocks []*block[T]
	n      int // total live tasks
	free   []*block[T]
}

// getBlock returns a recycled block whose backing array can hold n
// items, growing a pooled slab if necessary; the returned block has
// head 0 and empty items.
func (l *lsm[T]) getBlock(n int) *block[T] {
	if len(l.free) == 0 {
		return &block[T]{items: make([]pq.Item[T], 0, n)}
	}
	b := l.free[len(l.free)-1]
	l.free[len(l.free)-1] = nil
	l.free = l.free[:len(l.free)-1]
	if cap(b.items) < n {
		b.items = make([]pq.Item[T], 0, n)
	}
	return b
}

// putBlock recycles a block's header and backing array, zeroing every
// slot (including the consumed prefix) so pooled slabs never pin task
// payloads.
func (l *lsm[T]) putBlock(b *block[T]) {
	if len(l.free) >= maxFreeBlocks {
		return
	}
	clear(b.items[:cap(b.items)])
	b.items = b.items[:0]
	b.head = 0
	l.free = append(l.free, b)
}

// mergeBlocks merges the live runs of a and b into a block drawn from
// the pool, recycling both inputs.
func (l *lsm[T]) mergeBlocks(a, b *block[T]) *block[T] {
	nb := l.getBlock(a.size() + b.size())
	out := nb.items
	i, j := a.head, b.head
	for i < len(a.items) && j < len(b.items) {
		if a.items[i].P <= b.items[j].P {
			out = append(out, a.items[i])
			i++
		} else {
			out = append(out, b.items[j])
			j++
		}
	}
	out = append(out, a.items[i:]...)
	out = append(out, b.items[j:]...)
	nb.items = out
	l.putBlock(a)
	l.putBlock(b)
	return nb
}

// insertItem appends a singleton block and restores the geometric size
// invariant by merging trailing blocks.
func (l *lsm[T]) insertItem(p uint64, v T) {
	nb := l.getBlock(1)
	nb.items = append(nb.items, pq.Item[T]{P: p, V: v})
	l.insertBlock(nb)
}

// insertBlock adds a sorted block, then merges while the last block has
// grown to at least its predecessor's size (the LSM merge discipline).
// The block's ownership transfers to l (it may be recycled into l's
// pool by a later merge), so callers must not retain it.
func (l *lsm[T]) insertBlock(nb *block[T]) {
	if nb.size() == 0 {
		return
	}
	l.n += nb.size()
	l.blocks = append(l.blocks, nb)
	for len(l.blocks) >= 2 {
		last := l.blocks[len(l.blocks)-1]
		prev := l.blocks[len(l.blocks)-2]
		if last.size() < prev.size() {
			break
		}
		l.blocks[len(l.blocks)-2] = l.mergeBlocks(prev, last)
		l.blocks[len(l.blocks)-1] = nil
		l.blocks = l.blocks[:len(l.blocks)-1]
	}
}

// min returns the best live priority, or InfPriority when empty. The
// scan is over O(log n) block heads.
func (l *lsm[T]) min() uint64 {
	best := uint64(pq.InfPriority)
	for _, b := range l.blocks {
		if t := b.top(); t < best {
			best = t
		}
	}
	return best
}

// pop removes and returns the minimum-priority task.
func (l *lsm[T]) pop() (pq.Item[T], bool) {
	bi := -1
	best := uint64(pq.InfPriority)
	for i, b := range l.blocks {
		if t := b.top(); t < best {
			best, bi = t, i
		}
	}
	var zero pq.Item[T]
	if bi < 0 {
		return zero, false
	}
	b := l.blocks[bi]
	it := b.items[b.head]
	b.items[b.head] = zero // release the payload for GC
	b.head++
	l.n--
	if b.size() == 0 {
		l.blocks = append(l.blocks[:bi], l.blocks[bi+1:]...)
		l.putBlock(b)
	}
	return it, true
}

// removeLargest detaches the block with the most live tasks (the spill
// unit). Returns nil when empty.
func (l *lsm[T]) removeLargest() *block[T] {
	bi := -1
	size := 0
	for i, b := range l.blocks {
		if b.size() > size {
			size, bi = b.size(), i
		}
	}
	if bi < 0 {
		return nil
	}
	b := l.blocks[bi]
	l.blocks = append(l.blocks[:bi], l.blocks[bi+1:]...)
	l.n -= b.size()
	return b
}

// globalLSM is the shared spill target: one LSM behind a try-first
// spinlock, its minimum priority mirrored in an atomic word for
// lock-free peeking. The lock word and the peeked top are the two
// cross-worker contention points, so each gets its own cache line —
// including a leading pad, so that embedding globalLSM after other
// fields (KLSM.cfg, which every Push reads) cannot put those fields on
// the lock word's line. TestGlobalLSMLayout pins this.
type globalLSM[T any] struct {
	_   [contend.CacheLineSize]byte
	mu  contend.Lock
	_   [contend.CacheLineSize - 4]byte
	top atomic.Uint64
	_   [contend.CacheLineSize - 8]byte
	l   lsm[T]
}

// lock acquires the global lock, counting a failed fast-path try-lock
// as contention in the worker's LockFails.
func (g *globalLSM[T]) lock(c *sched.Counters) {
	if g.mu.TryLock() {
		return
	}
	c.LockFails++
	g.mu.Lock()
}

// insertBlocks merges a batch of spilled blocks under one acquisition.
func (g *globalLSM[T]) insertBlocks(bs []*block[T], c *sched.Counters) {
	g.lock(c)
	for _, b := range bs {
		g.l.insertBlock(b)
	}
	g.top.Store(g.l.min())
	g.mu.Unlock()
}

// popN removes up to len(dst) tasks whose priority beats bound under a
// single lock acquisition. The bound keeps a batched delete as honest
// as a delete of one: the moment the global minimum stops beating the
// caller's local minimum, the drain stops and the caller re-runs the
// comparison.
func (g *globalLSM[T]) popN(dst []pq.Item[T], bound uint64, c *sched.Counters) int {
	g.lock(c)
	n := 0
	for n < len(dst) && g.l.min() < bound {
		it, ok := g.l.pop()
		if !ok {
			break
		}
		dst[n] = it
		n++
	}
	g.top.Store(g.l.min())
	g.mu.Unlock()
	return n
}

// KLSM is the k-LSM relaxed priority scheduler.
type KLSM[T any] struct {
	cfg      Config
	global   globalLSM[T]
	workers  []worker[T]
	counters []sched.Counters
}

// New builds a k-LSM with the given configuration.
func New[T any](cfg Config) *KLSM[T] {
	cfg.normalize()
	s := &KLSM[T]{
		cfg:      cfg,
		workers:  make([]worker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	s.global.top.Store(pq.InfPriority)
	for i := range s.workers {
		w := &s.workers[i]
		w.s = s
		w.id = i
		w.c = &s.counters[i]
	}
	return s
}

// Workers reports the number of worker slots.
func (s *KLSM[T]) Workers() int { return s.cfg.Workers }

// Worker returns the handle for worker w. Each handle must be used by a
// single goroutine.
func (s *KLSM[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("klsm: worker index %d out of range [0,%d)", w, len(s.workers)))
	}
	return &s.workers[w]
}

// Stats aggregates counters; call only after workers quiesce.
func (s *KLSM[T]) Stats() sched.Stats {
	return sched.SumCounters(s.counters)
}

// worker is the per-goroutine handle: the thread-local LSM plus
// counters. It needs no RNG — the k-LSM is deterministic per worker.
type worker[T any] struct {
	s     *KLSM[T]
	id    int
	c     *sched.Counters
	local lsm[T]

	spill []*block[T]   // reusable scratch for overflow batches
	one   [1]pq.Item[T] // Pop's destination

	// Workers sit in one contiguous slice and mutate their local LSM
	// headers on every operation; a trailing cache line keeps them off
	// the neighbouring worker's line.
	_ [contend.CacheLineSize]byte
}

// Push inserts into the local LSM, spilling the largest local blocks to
// the global LSM whenever the relaxation bound k is exceeded. With
// k = 0 the task goes straight to the global LSM.
func (w *worker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	w.local.insertItem(p, v)
	if w.local.n > w.s.cfg.Relaxation {
		w.spillOverflow()
	}
}

// PushN turns the whole batch into ONE sorted block and inserts it
// into the local LSM in a single insertBlock — the per-element
// singleton-block + geometric-merge cascade is skipped entirely, which
// is exactly the LSM's favourite input shape (it consumes sorted runs
// in O(run)). The relaxation bound is enforced once after the batch,
// so at most one spill (one global lock acquisition) per PushN.
func (w *worker[T]) PushN(ps []uint64, vs []T) {
	sched.CheckPushN(len(ps), len(vs))
	if len(ps) == 0 {
		return
	}
	w.c.Pushes += uint64(len(ps))
	b := w.local.getBlock(len(ps))
	for i, p := range ps {
		b.items = append(b.items, pq.Item[T]{P: p, V: vs[i]})
	}
	slices.SortFunc(b.items, func(a, b pq.Item[T]) int {
		switch {
		case a.P < b.P:
			return -1
		case a.P > b.P:
			return 1
		}
		return 0
	})
	w.local.insertBlock(b)
	if w.local.n > w.s.cfg.Relaxation {
		w.spillOverflow()
	}
}

// spillOverflow moves whole blocks, largest first, from the local LSM
// into the global LSM until the local holds at most k tasks. The blocks
// are merged into the global under a single lock acquisition.
func (w *worker[T]) spillOverflow() {
	w.spill = w.spill[:0]
	for w.local.n > w.s.cfg.Relaxation {
		b := w.local.removeLargest()
		if b == nil {
			break
		}
		w.spill = append(w.spill, b)
	}
	if len(w.spill) == 0 {
		return
	}
	w.s.global.insertBlocks(w.spill, w.c)
	clear(w.spill)
	w.spill = w.spill[:0]
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

// PopN fills dst by repeating the relaxed DeleteMin: remove the better
// of the two minima this worker can see, its local LSM's minimum (no
// synchronization) or the global LSM's (under the global lock). The
// local preference on ties is what makes the operation relaxed — up to
// k better tasks may hide in each other worker's local LSM. A winning
// global minimum is drained in one locked popN that keeps taking tasks
// while the global top stays better than the local minimum — one lock
// acquisition for the run. 0 means this worker observed both LSMs
// empty; tasks may still sit in other workers' local LSMs (spurious
// emptiness, handled by the sched.Pending protocol).
func (w *worker[T]) PopN(dst []sched.Task[T]) int {
	if len(dst) == 0 {
		return 0
	}
	n := 0
	for n < len(dst) {
		localTop := w.local.min()
		globalTop := w.s.global.top.Load()
		if localTop <= globalTop {
			if localTop == pq.InfPriority {
				break
			}
			it, _ := w.local.pop()
			dst[n] = it
			n++
			continue
		}
		// 0 means the global drained between the peek and the lock:
		// re-examine both minima.
		n += w.s.global.popN(dst[n:], localTop, w.c)
	}
	if n > 0 {
		w.c.Pops += uint64(n)
	} else {
		w.c.EmptyPops++
	}
	return n
}
