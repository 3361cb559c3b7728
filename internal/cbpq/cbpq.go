// Package cbpq implements a CAS-based chunked priority queue in the
// style of Braginsky, Cohen and Petrank ("CBPQ: High Performance
// Lock-Free Priority Queue", Euro-Par 2016), with a combining path for
// below-head inserts: the queue is a short sequence of fixed-capacity
// chunks partitioned by priority range, the first chunk is sorted and
// consumed through a single packed claim word, inserts CAS-publish into
// the interior chunk owning their range, below-head inserts collect in
// an insertion buffer that one rebuild merges, and a full or contended
// chunk is frozen and split/rebuilt rather than mutated in place.
//
// Unlike every other scheduler in the zoo, no operation ever takes a
// lock (the Stats().LockFails counter reports CAS failures instead).
// CBPQ is also exact — Pop returns the minimum of all linearized
// entries — which makes it the zoo's lock-free rank-bound-0 baseline:
// the rank regression asserts zero displacement, and desim drives it at
// lookahead 0 expecting zero causality violations.
//
// # Structure
//
// All shared state hangs off a single atomic root pointer to an
// immutable spine:
//
//		spine{ head, buf, segs[], smins[] }
//
//	  - head is the sorted first chunk. Its idx word packs three fields:
//	    a freeze bit (bit 63), a buf publish counter, and the pop index
//	    (low bits). Pop claims the next sorted slot with one CAS on this
//	    word; the CAS succeeds only if no buf publish has landed since
//	    the pop read buf's minimum, which is what keeps head claims exact
//	    in the presence of below-head inserts (see below). A rebuild
//	    freezes the head through the same word (one Or setting the
//	    freeze bit); the index the Or observes is a clean claim cut, and
//	    because every claim is a CAS that fails against a frozen word,
//	    the word is immutable after the freeze and all helpers read the
//	    same cut from it directly.
//	  - segs[] hold the interior chunks, ascending by their range lower
//	    bound min, in immutable segments of at most segCap (32) chunks,
//	    each with a flat array of its chunks' mins; smins[j] is segment
//	    j's first min. An insert with priority p targets the last chunk
//	    with min <= p — two binary searches, over smins and then the
//	    segment's mins — and CAS-bumps its count word, then
//	    release-publishes the slot's ready flag. A new spine shares
//	    every segment its structural change did not touch (see spine.go).
//	  - buf is the insertion buffer for below-head inserts. An append
//	    folds its priority into buf's monotone minimum (bmin) and
//	    linearizes by bumping the publish counter in the head's packed
//	    word; Push then returns. Pops use bmin as their scan limit, so a
//	    buf entry that is the global minimum blocks head claims, and the
//	    first pop it blocks drives the rebuild that merges buf into a new
//	    sorted head — buf entries above the head minimum cost nothing
//	    until then.
//
// # Combining
//
// Below-head inserts are the structure's worst case: the head is
// immutable, so the decremental-key pattern (pop the minimum, reinsert
// slightly above it) that SSSP/A*/delta-stepping relaxations generate
// would otherwise force one freeze->merge->republish head rebuild per
// pair. buf turns N such inserts into one: they stay parked there until
// one of them becomes the global minimum and blocks a pop, and that
// pop's rebuild merges the entire frozen buf in one cycle. The combiner
// is elected by the root CAS itself (whichever helper's candidate
// wins), which keeps combining lock-free, unlike a flat-combining lock.
//
// There is deliberately no Hendler–Shavit elimination array in front
// of buf (a below-head push parking its entry in an exchange slot for a
// pop to take directly): on the segmented spine it does not pay. Bench
// `--sched cbpq --seconds 8`, alternating pairs, 2-vCPU host, W = 2,
// M tasks/s, array on → off: `sssp-rmat` 3.21 → 3.18 (10 pairs, the
// array winning 6, inside the 0.28 IQR), `hold` 2.17 → 2.28 (off won 5
// of 6), `sssp-road` 3.95 → 3.98 (3 of 6 each way), `process-road`
// 4.08 → 3.94 (2 of 4 each way), `serve-drain` 2.96 → 3.70 (off won 4
// of 4). Combining alone already turns N misses into one rebuild, and
// a rebuild does not copy the spine whole.
//
// The consistent-emptiness snapshot covers the head and buf: a pop
// reports empty only after observing a drained unfrozen head, an
// untouched buf and no interior chunks, and then re-reading the packed
// word unchanged — any buf publish in between would have bumped the
// publish counter, so the second read is the linearization point of
// the failed pop.
//
// # Freeze / split / rebuild
//
// Structural changes never mutate a published chunk's membership; they
// freeze it with one atomic Or — on the ctl word of a live chunk or
// buf (then wait out in-flight publication windows), on the packed idx
// word of the head — build replacement chunks privately, and CAS the
// root to a new spine. The CAS is the single linearization point;
// losers recycle their never-published candidate chunks into a
// per-worker freelist (published chunks are never pooled, so the root
// CAS cannot ABA) and retry against the new spine. A full interior
// chunk splits into two halves around its median, rewriting its
// segment (cut into halves once it outgrows segCap); a rebuild replaces
// the head with one freshly sorted from its frozen survivors plus the
// frozen buf, pulling in whole interior chunks across segments until
// the new head is full, and rewrites only the front segment: the spill
// chunks plus the unpulled rest of the segment the pull stopped in. Any
// thread can help: after a complete freeze the frozen membership is
// identical for all helpers, so all candidates are equivalent and
// whichever CAS wins is correct.
//
// # Lock-free batches
//
// There is one pop loop, PopN (Pop is PopN of one): each consecutive
// sorted head run is claimed with one CAS on the packed word (bounded so
// the run never overtakes a smaller buf entry). Because concurrent
// publishes can slip between two individually linearized claims, a
// batch is ascending in the absence of concurrent pushes but globally
// it is a sequence of exact scalar pops, which is the sched.Worker
// contract. PushN sorts the batch once into a per-worker scratch
// (sortItems in sort.go: a presorted scan, insertion sort or a radix
// sort on the keys, never a comparator call), appends its below-head
// run to buf with one count-word CAS and one publish, and publishes
// each remaining same-chunk run with a single count-word CAS on the
// owning chunk — one CAS per touched chunk, not per element.
//
// # Progress and allocation
//
// Every CAS failure implies another operation succeeded, so pushes,
// pops and structural changes are lock-free; the only unbounded waits
// are publication windows between a count reservation and its ready
// flag, which a reader spins out with Gosched (bounded by the
// publishing thread being scheduled across a few instructions, as in
// the original CBPQ's frozenness wait). Steady-state allocation is
// amortized O(1/ChunkCap) chunks per operation, and no structural
// change copies the spine whole: with L interior chunks (about 630 on
// RMAT-16 SSSP) a split copies O(segCap + L/segCap) pointers and mins —
// its segment, cut in two at most, plus the segment index — and a
// rebuild O(segCap + L/segCap) plus its spill, so neither the copy nor
// its GC write barriers grow with the queue
// (TestSplitCostIndependentOfResidentSize pins this). Rebuilds allocate
// a handful of chunks per ChunkCap pops, CAS losers recycle through the
// per-worker freelist, and popped or recycled slots are zeroed so the
// queue retains no payload memory (see the retention test).
package cbpq

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/contend"
	"repro/internal/pq"
	"repro/internal/sched"
)

// DefaultChunkCap is the chunk capacity used when Config.ChunkCap is 0.
// 128 amortizes splits and rebuilds over twice as many operations as
// the original 64 while a chunk's items still fit comfortably in L1;
// measured on the hold and uniform microbenchmarks it beats both 64
// (split churn) and 256 (head-rebuild copy cost scales with the head,
// which is sized as a multiple of ChunkCap).
//
// Swept on the segmented spine (bench `--sched cbpq --seconds 15`, two
// runs each, M useful tasks/s at W = 2 on a 2-vCPU Xeon VM), the
// workloads disagree:
//
//	ChunkCap     64          128         256         512
//	sssp-rmat    4.61 4.77   5.16 5.92   6.55 6.55   7.21 6.30
//	sssp-road    5.58 4.72   6.54 5.53   7.24 5.99   7.81 7.67
//	hold         3.36 3.58   3.44 3.48   2.72 2.76   1.98 2.15
//
// The SSSP workloads gain from larger chunks and hold loses, the trade
// named above. Moving the default needs paired runs of its own.
const DefaultChunkCap = 128

// maxFreeChunks bounds the per-worker freelist of recycled candidate
// chunks (CAS losers); beyond this they are dropped for the GC.
const maxFreeChunks = 8

// Live-chunk slot flag: a reserved slot's flag moves from 0 (free) to
// slotReady when its item has been published. Head chunks carry no
// per-slot state at all — the claim CAS on the packed idx word is the
// claim, and freezing goes through the same word (see freezeHead).
const slotReady uint32 = 1

// The head chunk's idx word packs [ freeze:1 | publishes:46 | index:17 ]:
//
//   - headFrozen is the freeze bit: once a rebuild ORs it in, every
//     claim CAS and buf publish CAS against the word fails, so the
//     word is immutable and the index it holds is the claim cut.
//   - the publish counter (stepped by headSeqOne) counts buf publishes
//     against this head. It only ever grows, so "counter unchanged
//     across a CAS/load" proves no entry was published in between —
//     the pillar of every exactness argument above. 46 bits cannot
//     overflow within a head's lifetime in any realistic run.
//   - the index occupies the low headIdxBits bits; claims only advance
//     it via CAS while it is below the head count, so it never exceeds
//     ChunkCap (<= 65536, which is why 17 bits suffice).
const (
	headFrozen  = uint64(1) << 63
	headIdxBits = 17
	headIdxMask = uint64(1)<<headIdxBits - 1
	headSeqOne  = uint64(1) << headIdxBits
)

// headMult sizes the head chunk relative to ChunkCap: a head is
// consumed once per pop but rebuilt wholesale, so a larger head
// amortizes each drain-driven rebuild (and its allocations) over
// proportionally more pops. Capped so the packed index field can never
// overflow headIdxBits.
const headMult = 2

// ctl packs a live chunk's state into one word: the freeze bit on top
// of the published-reservation count.
const (
	ctlFreeze = uint64(1) << 63
	ctlCount  = ctlFreeze - 1
)

// Config parameterizes a CBPQ.
type Config struct {
	// Workers is the number of worker handles (required, >= 1).
	Workers int
	// ChunkCap is the fixed chunk capacity. 0 means DefaultChunkCap;
	// otherwise it must be in [4, 65536].
	ChunkCap int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("cbpq: Workers must be >= 1, got %d", c.Workers)
	}
	if c.ChunkCap != 0 && (c.ChunkCap < 4 || c.ChunkCap > 1<<16) {
		return fmt.Errorf("cbpq: ChunkCap must be 0 (default) or in [4, 65536], got %d", c.ChunkCap)
	}
	return nil
}

// WithDefaults returns a copy with the zero ChunkCap replaced by
// DefaultChunkCap. Construction applies it after Validate.
func (c Config) WithDefaults() Config {
	if c.ChunkCap == 0 {
		c.ChunkCap = DefaultChunkCap
	}
	return c
}

// chunk is a fixed-capacity run of items. A head chunk uses the sorted
// prefix items[:n] and idx as the packed freeze|publishes|index word. A
// live chunk uses ctl as its freeze|count word and flags as per-slot
// publication (ready) bits; min is the inclusive lower bound of its
// priority range.
type chunk[T any] struct {
	min uint64
	n   int
	// pre counts the slots filled at build time by prefill. They were
	// written before the chunk was published (the root CAS orders
	// them), so freezeLive need not spin on their ready bits and
	// prefill skips len(items) ordered flag stores.
	pre int

	idx atomic.Uint64
	_   [contend.CacheLineSize - 8]byte
	ctl atomic.Uint64
	_   [contend.CacheLineSize - 8]byte
	// bmin is the minimum priority ever appended while the chunk served
	// as a spine's buf (^0 when unused). A buf append publishes bmin
	// then bumps the head's publish counter, so pops see buf entries
	// without a rebuild; padded because pushers write it while every
	// reader needs the slice headers below.
	bmin atomic.Uint64
	_    [contend.CacheLineSize - 8]byte

	items []pq.Item[T]
	flags []atomic.Uint32
}

// Queue is a lock-free chunked priority queue. Create with New, then
// hand each goroutine its own Worker.
type Queue[T any] struct {
	cfg Config
	// headCap is the head chunk capacity (headMult * ChunkCap, capped
	// so the packed index field cannot overflow).
	headCap int
	root    atomic.Pointer[spine[T]]
	_       [contend.CacheLineSize]byte

	workers  []worker[T]
	counters []sched.Counters
}

type worker[T any] struct {
	q *Queue[T]
	c *sched.Counters

	// batch holds PushN's sorted copy; merge is the rebuild/split
	// scratch (distinct because PushN drives rebuilds mid-batch) and
	// merge2 its partner for the sorted-run merge (the two swap roles);
	// run lists the chunks of the segments a structural change
	// rewrites; radix is sortItems' ping-pong buffer.
	batch  []pq.Item[T]
	merge  []pq.Item[T]
	merge2 []pq.Item[T]
	run    []*chunk[T]
	radix  []pq.Item[T]
	one    [1]pq.Item[T] // Pop's destination

	// built tracks the candidate chunks of the current structural
	// attempt; free pools recycled CAS losers (interior/buf chunks) and
	// freeHead the headCap-sized head candidates, which carry no flags
	// and must never be reused as interior chunks.
	built    []*chunk[T]
	free     []*chunk[T]
	freeHead []*chunk[T]

	_ [contend.CacheLineSize]byte
}

// New builds a CBPQ. It panics if cfg is invalid (see Config.Validate).
func New[T any](cfg Config) *Queue[T] {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.WithDefaults()
	q := &Queue[T]{
		cfg:      cfg,
		headCap:  min(headMult*cfg.ChunkCap, 1<<16),
		workers:  make([]worker[T], cfg.Workers),
		counters: make([]sched.Counters, cfg.Workers),
	}
	for i := range q.workers {
		q.workers[i] = worker[T]{q: q, c: &q.counters[i]}
	}
	w := &q.workers[0]
	q.root.Store(&spine[T]{head: w.getHead(), buf: w.getChunk()})
	w.commitBuilt()
	return q
}

// Workers returns the number of worker handles.
func (q *Queue[T]) Workers() int { return q.cfg.Workers }

// Worker returns the handle for worker w. Each handle must be used by
// at most one goroutine at a time.
func (q *Queue[T]) Worker(w int) sched.Worker[T] {
	if w < 0 || w >= q.cfg.Workers {
		panic(fmt.Sprintf("cbpq: worker index %d out of range [0,%d)", w, q.cfg.Workers))
	}
	return &q.workers[w]
}

// Stats aggregates the per-worker counters. LockFails counts CAS
// failures (there are no locks to fail); Combines counts below-head
// inserts merged in bulk by a combining rebuild.
func (q *Queue[T]) Stats() sched.Stats { return sched.SumCounters(q.counters) }

// Push inserts one task.
func (w *worker[T]) Push(p uint64, v T) {
	w.c.Pushes++
	w.push1(p, v)
}

func (w *worker[T]) push1(p uint64, v T) {
	q := w.q
	for {
		s := q.root.Load()
		if j, k := s.locate(p); j >= 0 {
			if s.segs[j].chunks[k].tryAppend(w, p, v) {
				return
			}
			q.split(w, s, j, k)
			continue
		}
		b := s.buf
		if b.tryAppend(w, p, v) {
			if b.publishBufMin(s.head, p) {
				// Linearized at the counter bump: pops read b's bmin as
				// their limit and the bump invalidates any concurrent
				// head claim.
				return
			}
			// Head froze mid-publish. The append beat buf's freeze (buf
			// freezes before the head does), so the in-flight rebuild's
			// merge set includes this entry and its root CAS linearizes
			// it; drive rebuilds until one lands.
			for {
				cur := q.root.Load()
				if cur.buf != b {
					return
				}
				q.rebuild(w, cur)
			}
		}
		q.rebuild(w, s)
	}
}

// publishBufMin makes a freshly appended buf entry of priority p
// visible to pops: fold p into the buf's monotone minimum, then bump
// h's publish counter — the entry's linearization point, validated by
// every pop's claiming CAS. Returns false when the head froze first;
// the caller's entry then rides the in-flight rebuild instead (it is
// already inside the frozen count).
func (c *chunk[T]) publishBufMin(h *chunk[T], p uint64) bool {
	for {
		cur := c.bmin.Load()
		if p >= cur || c.bmin.CompareAndSwap(cur, p) {
			break
		}
	}
	for {
		hw := h.idx.Load()
		if hw&headFrozen != 0 {
			return false
		}
		if h.idx.CompareAndSwap(hw, hw+headSeqOne) {
			return true
		}
	}
}

// Pop removes and returns a minimum-priority task, or ok=false when the
// queue is empty: PopN into the worker's one-slot destination.
func (w *worker[T]) Pop() (uint64, T, bool) {
	if w.PopN(w.one[:]) == 0 {
		var zero T
		return 0, zero, false
	}
	it := w.one[0]
	w.one[0] = pq.Item[T]{}
	return it.P, it.V, true
}

// PushN inserts a batch (see sched.Worker). The batch is sorted once,
// and each run of entries owned by the same chunk is published with a
// single count-word CAS; the below-head run lands in buf and is merged
// by one combining rebuild.
func (w *worker[T]) PushN(ps []uint64, vs []T) {
	sched.CheckPushN(len(ps), len(vs))
	if len(ps) == 0 {
		return
	}
	w.c.Pushes += uint64(len(ps))
	q := w.q
	batch := w.batch[:0]
	for i, p := range ps {
		batch = append(batch, pq.Item[T]{P: p, V: vs[i]})
	}
	sortItems(batch, &w.radix)
	w.batch = batch

	var lastBuf *chunk[T]
	i := 0
	for i < len(batch) {
		s := q.root.Load()
		p := batch[i].P
		if sj, sk := s.locate(p); sj >= 0 {
			hi := s.nextMin(sj, sk)
			j := i + 1
			for j < len(batch) && batch[j].P < hi {
				j++
			}
			if n := s.segs[sj].chunks[sk].tryAppendRun(w, batch[i:j]); n > 0 {
				i += n
				continue
			}
			q.split(w, s, sj, sk)
			continue
		}
		hi := uint64(1<<64 - 1)
		if len(s.smins) > 0 {
			hi = s.smins[0]
		}
		j := i + 1
		for j < len(batch) && batch[j].P < hi {
			j++
		}
		if n := s.buf.tryAppendRun(w, batch[i:j]); n > 0 {
			// batch is ascending, so batch[i].P is the run's minimum;
			// one counter bump linearizes the whole run unless the head
			// froze first, in which case the run rides the in-flight
			// rebuild (drained after the loop).
			if !s.buf.publishBufMin(s.head, batch[i].P) {
				lastBuf = s.buf
			}
			i += n
			continue
		}
		q.rebuild(w, s)
	}
	if lastBuf != nil {
		for {
			cur := q.root.Load()
			if cur.buf != lastBuf {
				break
			}
			q.rebuild(w, cur)
		}
	}
	clear(w.batch)
	w.batch = w.batch[:0]
}

// PopN removes up to len(dst) minimum-priority tasks; 0 means the queue
// is empty. The hot path is one CAS on the head's packed word, preceded
// by a load of buf's minimum; the CAS doubles as the validation that no
// smaller entry was published concurrently. Each consecutive sorted
// head run is claimed with one such CAS, bounded so the run never
// overtakes a smaller buf entry. Every claimed task is individually
// exact at its own linearization point; the batch is ascending in the
// absence of concurrent pushes (see the package docs on batches).
func (w *worker[T]) PopN(dst []sched.Task[T]) int {
	if len(dst) == 0 {
		return 0
	}
	q := w.q
	var zero T
	n := 0
	for n < len(dst) {
		s := q.root.Load()
		h := s.head
		hw := h.idx.Load()
		if hw&headFrozen != 0 {
			q.rebuild(w, s)
			continue
		}
		v := hw & headIdxMask
		limit := s.buf.bmin.Load()
		if v < uint64(h.n) && h.items[v].P <= limit {
			end := min(v+uint64(len(dst)-n), uint64(h.n))
			for end > v+1 && h.items[end-1].P > limit {
				end--
			}
			// Head claim. Success proves the publish counter is
			// unchanged since the bmin load, so every buf entry present
			// at this instant was accounted for and has priority >=
			// items[end-1].P.
			if h.idx.CompareAndSwap(hw, hw+(end-v)) {
				for i := v; i < end; i++ {
					dst[n] = h.items[i]
					h.items[i].V = zero
					n++
				}
				w.c.Pops += end - v
				continue
			}
			w.c.LockFails++
			continue
		}
		// Report empty only from a consistent snapshot: the head was
		// observed drained with the freeze bit clear, buf.ctl == 0
		// rules out both pending buf entries and an in-flight rebuild
		// of s (a rebuild freezes buf — making ctl nonzero forever —
		// before it touches the head or the root), and re-reading the
		// packed word unchanged proves no buf publish landed anywhere in
		// the window. That second read is the linearization point.
		if v >= uint64(h.n) && s.buf.ctl.Load() == 0 && len(s.segs) == 0 && h.idx.Load() == hw {
			break
		}
		q.rebuild(w, s)
	}
	if n == 0 {
		w.c.EmptyPops++
	}
	return n
}

// tryAppend reserves one slot in a live chunk with a count-word CAS and
// publishes the item behind its ready flag. It fails (false) when the
// chunk is frozen or full.
func (c *chunk[T]) tryAppend(w *worker[T], p uint64, v T) bool {
	for {
		ctl := c.ctl.Load()
		if ctl&ctlFreeze != 0 {
			return false
		}
		n := int(ctl & ctlCount)
		if n >= len(c.items) {
			return false
		}
		if c.ctl.CompareAndSwap(ctl, ctl+1) {
			c.items[n] = pq.Item[T]{P: p, V: v}
			c.flags[n].Store(slotReady)
			return true
		}
		w.c.LockFails++
	}
}

// tryAppendRun reserves space for as much of run as fits with a single
// count-word CAS, publishes the copied items, and returns how many were
// taken (0 when frozen or full).
func (c *chunk[T]) tryAppendRun(w *worker[T], run []pq.Item[T]) int {
	for {
		ctl := c.ctl.Load()
		if ctl&ctlFreeze != 0 {
			return 0
		}
		n := int(ctl & ctlCount)
		r := min(len(c.items)-n, len(run))
		if r == 0 {
			return 0
		}
		if c.ctl.CompareAndSwap(ctl, ctl+uint64(r)) {
			copy(c.items[n:n+r], run[:r])
			for i := n; i < n+r; i++ {
				c.flags[i].Store(slotReady)
			}
			return r
		}
		w.c.LockFails++
	}
}

// freezeLive sets the chunk's freeze bit and waits out in-flight
// publications; afterwards items[:count] is stable and fully visible.
// Returns the frozen count.
func freezeLive[T any](c *chunk[T]) int {
	n := int(c.ctl.Or(ctlFreeze) & ctlCount)
	// Slots below pre were published by the root CAS that installed the
	// chunk; only appended slots carry per-slot ready bits to wait out.
	for i := c.pre; i < n; i++ {
		for spins := 0; c.flags[i].Load() != slotReady; spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
		}
	}
	return n
}

// freezeHead freezes a head chunk atomically through its packed word:
// one Or sets the freeze bit, and the index the Or observed is the
// claim cut — every smaller index was advanced by a claim CAS that
// preceded the freeze (an owned, already-linearized pop), and no index
// at or above it can ever be claimed, because every CAS against a
// frozen word fails. The same failure rule covers buf publishes, so
// the freeze simultaneously stops the publish counter.
// The word is immutable once frozen (claims are CASes, not
// fetch-and-adds, so nothing inflates it afterwards); every helper
// therefore reads the same cut straight from the Or's return value,
// with no separate cut publication or wait.
func freezeHead[T any](h *chunk[T]) int {
	v := h.idx.Or(headFrozen)
	return int(min(v&headIdxMask, uint64(h.n)))
}

// rebuild replaces spine s with one whose head is freshly sorted from
// the head's unclaimed survivors plus the frozen buf — pulling in whole
// interior chunks until the head is full — plus spill chunks for the
// overflow and an empty buf. This is the combining path: however many
// below-head inserts are pending in buf, one cycle merges them all.
// Safe to call from any thread at any time; helpers build equivalent
// candidates and exactly one root CAS wins.
func (q *Queue[T]) rebuild(w *worker[T], s *spine[T]) {
	if q.root.Load() != s {
		return
	}
	bn := freezeLive(s.buf)
	h := s.head
	cut := freezeHead(h)
	if q.root.Load() != s {
		return // another helper's candidate already won
	}
	m := w.merge[:0]
	m = append(m, h.items[cut:h.n]...)
	// The survivors are the head's sorted tail; everything appended
	// after this point (buf, pulled-in interior chunks) is unordered.
	// Remembering the boundary lets the sort below touch only the
	// unordered part.
	sorted := len(m)
	m = append(m, s.buf.items[:bn]...)
	// Pull in whole interior chunks until the new head is nearly full:
	// always rebuilding to a ~headCap head is what keeps the
	// amortization (one rebuild per ~headCap pops) — promoting only on
	// a fully drained head would let heads shrink and rebuilds cascade.
	// The pull target sits one chunk below the fill target so that a
	// whole-chunk overshoot still lands within headCap, which preserves
	// the head array's slack (see below) for the absorb rebuilds that
	// follow. The rule is a deterministic function of the frozen
	// counts, so concurrent helpers still build equivalent candidates.
	cap_ := q.cfg.ChunkCap
	hcap := q.headCap
	pullTo := max(hcap-cap_, min(hcap, cap_))
	j, k := 0, 0 // the next chunk to pull is s.segs[j].chunks[k]
	for len(m) < pullTo && j < len(s.segs) {
		sg := s.segs[j]
		c := sg.chunks[k]
		ln := freezeLive(c)
		m = append(m, c.items[:ln]...)
		if k++; k == sg.n {
			j, k = j+1, 0
		}
	}
	// In the hold steady state the merge set is dominated by the
	// already-sorted survivor run, so sort only the unordered tail and
	// merge the two runs instead of re-sorting the whole set.
	if sorted < len(m) {
		sortItems(m[sorted:], &w.radix)
		if sorted > 0 {
			m = w.mergeRuns(m, sorted)
		}
	}

	// Small overflows stay in the head: head arrays carry a full chunk
	// of slack beyond the headCap fill target, so neither a merge set
	// that barely exceeds the target nor a pull-in that overshoots it
	// by part of a chunk sheds a tiny spill chunk. Tiny spills are
	// poison in the hold steady state — each becomes an interior chunk
	// just above the head, they accumulate one per rebuild, and routing
	// plus split churn lands on the decremental fast path — so a
	// rebuild only spills when a chunk's worth of overflow has built
	// up, and the spilled run is then at least half a chunk itself.
	head2 := w.getHead()
	nh := len(m)
	if nh > len(head2.items) {
		nh = hcap
	}
	head2.n = nh
	copy(head2.items[:nh], m[:nh])

	// Spill the overflow in equal-sized runs of at least half a chunk
	// (never a 512,512,57-style remainder: a sub-half spill chunk fills
	// and splits almost immediately).
	rest := m[nh:]
	nspill := max(1, len(rest)/max(1, cap_/2))
	run := w.run[:0]
	for n := nspill; len(rest) > 0; n-- {
		r := (len(rest) + n - 1) / n
		run = append(run, w.prefill(rest[0].P, rest[:r]))
		rest = rest[r:]
	}
	// Only the front segment is rewritten: the spill chunks plus the
	// unpulled rest of the segment the pull stopped in. Every later
	// segment is shared, as are all of them when the pull stopped on a
	// segment boundary and nothing spilled.
	hi := j
	if j < len(s.segs) && (k > 0 || len(run) > 0) {
		sg := s.segs[j]
		run = append(run, sg.chunks[k:sg.n]...)
		hi++
	}
	s2 := s.rewrite(head2, w.getChunk(), 0, hi, run)
	clear(run)
	w.run = run[:0]
	if q.root.CompareAndSwap(s, s2) {
		w.commitBuilt()
		w.c.Combines += uint64(bn)
	} else {
		w.c.LockFails++
		w.recycleBuilt()
	}
	// mergeRuns may have swapped the scratch buffers; release payload
	// references held by both so neither retains popped values.
	clear(m)
	w.merge = m[:0]
	clear(w.merge2)
	w.merge2 = w.merge2[:0]
}

// mergeRuns merges the two ascending runs m[:k] and m[k:] into the
// worker's partner scratch buffer, swaps the two buffers' roles, and
// returns the merged slice. rebuild uses it because its merge set is
// mostly the head's already-sorted survivors: sorting only the short
// unordered tail and merging the runs is much cheaper than re-sorting
// the whole set every ~ChunkCap pops.
func (w *worker[T]) mergeRuns(m []pq.Item[T], k int) []pq.Item[T] {
	out := w.merge2[:0]
	i, j := 0, k
	for i < k && j < len(m) {
		if m[j].P < m[i].P {
			out = append(out, m[j])
			j++
		} else {
			out = append(out, m[i])
			i++
		}
	}
	out = append(out, m[i:k]...)
	out = append(out, m[j:]...)
	w.merge2 = m
	return out
}

// split replaces the frozen (or about-to-freeze) interior chunk (j, k)
// with two halves around its median — or a single thawed copy when it
// holds fewer than two entries — rewriting segment j alone. Like
// rebuild, any thread can help and one root CAS wins. The head and buf
// are untouched: a split never changes the first interior min, so
// "below head" stays below head.
func (q *Queue[T]) split(w *worker[T], s *spine[T], j, k int) {
	if q.root.Load() != s {
		return
	}
	sg := s.segs[j]
	c := sg.chunks[k]
	n := freezeLive(c)
	m := w.merge[:0]
	m = append(m, c.items[:n]...)

	run := append(w.run[:0], sg.chunks[:k]...)
	if len(m) < 2 {
		run = append(run, w.prefill(c.min, m))
	} else {
		// A split only needs the median boundary, not sorted halves:
		// interior chunk membership is unordered by design (ordering is
		// established when a rebuild pulls the chunk into a sorted
		// head), so a quickselect partition replaces the full sort.
		mid := partitionMid(m, &w.radix)
		run = append(run, w.prefill(c.min, m[:mid]), w.prefill(m[mid].P, m[mid:]))
	}
	run = append(run, sg.chunks[k+1:sg.n]...)
	s2 := s.rewrite(s.head, s.buf, j, j+1, run)
	clear(run)
	w.run = run[:0]
	if q.root.CompareAndSwap(s, s2) {
		w.commitBuilt()
	} else {
		w.c.LockFails++
		w.recycleBuilt()
	}
	clear(m)
	w.merge = m[:0]
}

// prefill builds a fully published live chunk holding items, with range
// lower bound min.
func (w *worker[T]) prefill(min uint64, items []pq.Item[T]) *chunk[T] {
	c := w.getChunk()
	c.min = min
	copy(c.items, items)
	// No per-slot ready bits: the chunk is private until the root CAS
	// publishes it, which orders these plain writes for every reader;
	// pre tells freezeLive the prefix needs no flag spin.
	c.pre = len(items)
	c.ctl.Store(uint64(len(items)))
	return c
}

// getChunk takes a chunk from the per-worker freelist (or allocates
// one) and records it as part of the current structural attempt.
func (w *worker[T]) getChunk() *chunk[T] {
	var c *chunk[T]
	if n := len(w.free); n > 0 {
		c = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else {
		c = &chunk[T]{
			items: make([]pq.Item[T], w.q.cfg.ChunkCap),
			flags: make([]atomic.Uint32, w.q.cfg.ChunkCap),
		}
	}
	c.bmin.Store(^uint64(0))
	w.built = append(w.built, c)
	return c
}

// getHead is getChunk for head candidates: items sized headCap plus a
// chunk of spill slack (see rebuild), no flags (heads are
// immutable after their publishing CAS and consumed through the packed
// idx word, so per-slot ready bits are meaningless).
func (w *worker[T]) getHead() *chunk[T] {
	var c *chunk[T]
	if n := len(w.freeHead); n > 0 {
		c = w.freeHead[n-1]
		w.freeHead[n-1] = nil
		w.freeHead = w.freeHead[:n-1]
	} else {
		n := w.q.headCap + w.q.cfg.ChunkCap
		if n > (1<<headIdxBits)-1 {
			n = (1 << headIdxBits) - 1
		}
		c = &chunk[T]{items: make([]pq.Item[T], n)}
	}
	c.bmin.Store(^uint64(0))
	w.built = append(w.built, c)
	return c
}

// commitBuilt forgets the candidates of a won CAS: they are published
// now and must never return to the pool (that would ABA the root CAS).
// The pointers are nilled, not just truncated away: a published chunk
// eventually retires carrying unzeroed survivor copies, and a stale
// pointer in the scratch backing array would pin those payloads.
func (w *worker[T]) commitBuilt() {
	clear(w.built)
	w.built = w.built[:0]
}

// recycleBuilt returns the candidates of a lost CAS — memory no other
// thread has ever seen — to the freelist, zeroed so the pool retains no
// task payloads.
func (w *worker[T]) recycleBuilt() {
	for _, c := range w.built {
		// Head candidates carry no flags and have their own pool: their
		// items are headCap-sized and a flagless chunk must never serve
		// as an interior chunk or buf.
		pool := &w.free
		if c.flags == nil {
			pool = &w.freeHead
		}
		if len(*pool) < maxFreeChunks {
			c.min, c.n, c.pre = 0, 0, 0
			c.idx.Store(0)
			c.ctl.Store(0)
			clear(c.items)
			clear(c.flags)
			*pool = append(*pool, c)
		}
	}
	clear(w.built)
	w.built = w.built[:0]
}
