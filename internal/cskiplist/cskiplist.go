// Package cskiplist implements a concurrent skip-list priority queue with
// lazy (mark-then-unlink) deletion, in the style of the Herlihy–Shavit
// LazySkipList, adapted to multiset priority-queue semantics (duplicate
// priorities allowed, DeleteMin instead of Remove-by-key).
//
// It is the substrate for two of the paper's schedulers:
//
//   - the SMQ-via-skip-lists variant (§4, Appendix D.3/D.4), where each
//     thread-local queue is one of these lists and stealing is a batched
//     DeleteMin on a victim's list; and
//   - the SprayList baseline [6], which replaces DeleteMin with a "spray":
//     a short random descent that lands on one of the first O(p·polylog p)
//     elements, trading priority precision for contention.
//
// Traversals are lock-free (all links are atomic.Pointer loads); mutations
// lock only the affected predecessors, validate, and retry on conflict.
// Logical deletion is a per-node marked flag; unlinking happens eagerly
// under the same locks so the list does not accumulate garbage prefixes.
//
// # Ordering and deadlock freedom
//
// Duplicate priorities are disambiguated by a per-list monotone sequence
// number, giving every node a unique composite key (prio, seq) and hence
// a total list order that is identical at every layer. All lock
// acquisition paths (Insert predecessors bottom-up, unlink victim-then-
// predecessors) take locks in strictly decreasing list-position order,
// which rules out deadlock. Without the tiebreaker, a predecessor search
// for a node that sits inside a run of equal priorities could return a
// higher-layer predecessor positioned after the victim, inverting the
// acquisition order — a real deadlock observed in early testing.
package cskiplist

import (
	"sync"
	"sync/atomic"

	"repro/internal/pq"
	"repro/internal/xrand"
)

const maxLevel = 20

// node is a skip-list node. prio/seq are immutable; next pointers are
// mutated only while the owning predecessor locks are held, but always
// through atomic stores so that lock-free readers are safe.
type node[T any] struct {
	prio  uint64
	seq   uint64
	value T
	next  []atomic.Pointer[node[T]]
	// mu stays a sync.Mutex deliberately: unlike the Multi-Queue queue
	// headers (tiny critical sections, try-lock discipline — see
	// internal/contend), skip-list mutations hold several node locks
	// nested across validate-and-retry loops, so waiters are frequent
	// and hold times long. A TATAS spinlock here convoys badly (a
	// measured ~30x slowdown of the -race suite); a parking lock is the
	// right primitive.
	mu          sync.Mutex
	marked      atomic.Bool
	fullyLinked atomic.Bool
	isTail      bool
	topLayer    int
}

// before reports whether a precedes b in the total list order.
func (a *node[T]) before(b *node[T]) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// SkipList is a concurrent priority queue. Lower priority value = higher
// priority. The zero value is not usable; call New.
type SkipList[T any] struct {
	head *node[T]
	tail *node[T]
	size atomic.Int64 // live elements, exact when quiescent
	// seq hands out unique tiebreakers; ties pop in FIFO order.
	seq atomic.Uint64
	// levelSeed feeds a splitmix64 stream used for insert level draws,
	// so Insert needs no caller-supplied randomness.
	levelSeed atomic.Uint64
}

// New returns an empty list. seed makes level choices reproducible.
func New[T any](seed uint64) *SkipList[T] {
	s := &SkipList[T]{}
	s.levelSeed.Store(seed)
	s.tail = &node[T]{
		prio:     pq.InfPriority,
		seq:      ^uint64(0),
		next:     make([]atomic.Pointer[node[T]], maxLevel),
		isTail:   true,
		topLayer: maxLevel - 1,
	}
	s.tail.fullyLinked.Store(true)
	s.head = &node[T]{
		next:     make([]atomic.Pointer[node[T]], maxLevel),
		topLayer: maxLevel - 1,
	}
	for i := range s.head.next {
		s.head.next[i].Store(s.tail)
	}
	s.head.fullyLinked.Store(true)
	return s
}

// Top returns the priority of the first live element, or pq.InfPriority
// when the list looks empty. The answer is a racy snapshot, which is all
// the relaxed schedulers need for their steal comparisons.
func (s *SkipList[T]) Top() uint64 {
	for curr := s.head.next[0].Load(); !curr.isTail; curr = curr.next[0].Load() {
		if !curr.marked.Load() && curr.fullyLinked.Load() {
			return curr.prio
		}
	}
	return pq.InfPriority
}

// randomLevel draws a geometric(1/2) level in [0, maxLevel).
func (s *SkipList[T]) randomLevel() int {
	x := s.levelSeed.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	lvl := 0
	for lvl < maxLevel-1 && x&1 == 1 {
		lvl++
		x >>= 1
	}
	return lvl
}

// findNode fills preds/succs around node n's position in the total
// order: at each layer, preds[l] is the last node before n and succs[l]
// the first node not before n (which is n itself where n is linked).
// It reports whether n was found at layer 0.
func (s *SkipList[T]) findNode(n *node[T], preds, succs *[maxLevel]*node[T]) bool {
	pred := s.head
	for layer := maxLevel - 1; layer >= 0; layer-- {
		curr := pred.next[layer].Load()
		for !curr.isTail && curr.before(n) {
			pred = curr
			curr = curr.next[layer].Load()
		}
		preds[layer] = pred
		succs[layer] = curr
	}
	return succs[0] == n
}

// Insert adds a task. It never fails; duplicates are allowed and pop in
// FIFO order among equal priorities.
func (s *SkipList[T]) Insert(p uint64, v T) {
	topLayer := s.randomLevel()
	n := &node[T]{
		prio:     p,
		seq:      s.seq.Add(1),
		value:    v,
		next:     make([]atomic.Pointer[node[T]], topLayer+1),
		topLayer: topLayer,
	}
	var preds, succs [maxLevel]*node[T]
	for {
		s.findNode(n, &preds, &succs)
		// Lock predecessors bottom-up (rightmost first) and validate.
		if !s.lockAndValidate(&preds, &succs, topLayer) {
			continue
		}
		for layer := 0; layer <= topLayer; layer++ {
			n.next[layer].Store(succs[layer])
		}
		for layer := 0; layer <= topLayer; layer++ {
			preds[layer].next[layer].Store(n)
		}
		n.fullyLinked.Store(true)
		s.unlock(&preds, topLayer)
		s.size.Add(1)
		return
	}
}

// lockAndValidate locks preds[0..topLayer] (skipping repeats) and checks
// that each pred still links to the corresponding succ and neither end is
// marked. On failure everything is unlocked and false returned.
//
// Lock-order note: preds at higher layers sit at equal-or-earlier list
// positions, so locking bottom-up acquires locks in non-increasing
// position order; repeated preds are consecutive and deduplicated.
func (s *SkipList[T]) lockAndValidate(preds, succs *[maxLevel]*node[T], topLayer int) bool {
	var prev *node[T]
	highest := -1
	valid := true
	for layer := 0; layer <= topLayer; layer++ {
		pred := preds[layer]
		if pred != prev {
			pred.mu.Lock()
			highest = layer
			prev = pred
		}
		if pred.marked.Load() || succs[layer].marked.Load() || pred.next[layer].Load() != succs[layer] {
			valid = false
			break
		}
	}
	if !valid {
		s.unlock(preds, highest)
		return false
	}
	return true
}

// unlock releases the distinct locks among preds[0..top].
func (s *SkipList[T]) unlock(preds *[maxLevel]*node[T], top int) {
	var prev *node[T]
	for layer := 0; layer <= top; layer++ {
		if preds[layer] != prev {
			preds[layer].mu.Unlock()
			prev = preds[layer]
		}
	}
}

// DeleteMin removes and returns the highest-priority (lowest value) live
// element. ok is false when the list is empty.
func (s *SkipList[T]) DeleteMin() (p uint64, v T, ok bool) {
	for {
		curr := s.head.next[0].Load()
		for !curr.isTail {
			if curr.fullyLinked.Load() && !curr.marked.Load() {
				if s.claim(curr) {
					s.unlink(curr)
					s.size.Add(-1)
					return curr.prio, curr.value, true
				}
				// Lost the race for this node; restart from the head
				// so we never return a worse element than necessary.
				break
			}
			curr = curr.next[0].Load()
		}
		if curr.isTail {
			var zero T
			return pq.InfPriority, zero, false
		}
	}
}

// claim logically deletes curr. It returns false if someone else already
// claimed it.
func (s *SkipList[T]) claim(curr *node[T]) bool {
	return curr.marked.CompareAndSwap(false, true)
}

// unlink physically removes a marked node from every layer.
//
// Lock ordering: every code path (Insert's pred locking, this function)
// acquires node locks in decreasing list-position order — rightmost first.
// The victim n sits to the right of all its predecessors, so it must be
// locked BEFORE them; locking it after would create a cycle with an
// Insert that holds n as its layer-0 predecessor while waiting for a node
// to n's left. Holding n.mu also freezes n.next (inserts after n need
// n.mu), so the pointer splice below reads a stable snapshot.
func (s *SkipList[T]) unlink(n *node[T]) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var preds, succs [maxLevel]*node[T]
	for {
		if !s.findNode(n, &preds, &succs) {
			return // already unlinked
		}
		if s.lockPredsForUnlink(&preds, n) {
			for layer := n.topLayer; layer >= 0; layer-- {
				preds[layer].next[layer].Store(n.next[layer].Load())
			}
			s.unlock(&preds, n.topLayer)
			return
		}
	}
}

// lockPredsForUnlink locks the distinct predecessors of n and validates
// that they still point at n and are unmarked.
func (s *SkipList[T]) lockPredsForUnlink(preds *[maxLevel]*node[T], n *node[T]) bool {
	var prev *node[T]
	highest := -1
	valid := true
	for layer := 0; layer <= n.topLayer; layer++ {
		pred := preds[layer]
		if pred != prev {
			pred.mu.Lock()
			highest = layer
			prev = pred
		}
		if pred.marked.Load() || pred.next[layer].Load() != n {
			valid = false
			break
		}
	}
	if !valid {
		s.unlock(preds, highest)
		return false
	}
	return true
}

// DeleteMinBatch removes up to k highest-priority elements, appending them
// to dst in the order removed (ascending priority modulo races). This is
// the steal(k) primitive for the SMQ-via-skip-lists variant.
func (s *SkipList[T]) DeleteMinBatch(k int, dst []pq.Item[T]) []pq.Item[T] {
	for i := 0; i < k; i++ {
		p, v, ok := s.DeleteMin()
		if !ok {
			break
		}
		dst = append(dst, pq.Item[T]{P: p, V: v})
	}
	return dst
}

// SprayParams tunes the SprayList deletion walk. See [6]: starting from
// height ~log2(p)+TopPadding, each descent jumps forward a uniformly
// random number of nodes in [0, JumpLen] before dropping Descend levels.
type SprayParams struct {
	Height     int // starting layer; <=0 means auto from thread count
	JumpLen    int // max forward jump per layer; <=0 means auto
	Descend    int // layers dropped per step; <=0 means 1
	MaxRetries int // spray attempts before falling back to DeleteMin
}

// DefaultSprayParams follows the SprayList paper's recommendation for p
// concurrent threads.
func DefaultSprayParams(p int) SprayParams {
	h := 1
	for 1<<h < p {
		h++
	}
	return SprayParams{
		Height:     h + 1,
		JumpLen:    h + 1, // M·(log p) with M=1
		Descend:    1,
		MaxRetries: 4,
	}
}

// Spray removes a near-minimal element using the SprayList random walk.
// It falls back to DeleteMin after MaxRetries failed attempts, so it only
// reports ok=false when the list is genuinely (observably) empty.
func (s *SkipList[T]) Spray(params SprayParams, rng *xrand.Rand) (p uint64, v T, ok bool) {
	retries := params.MaxRetries
	if retries <= 0 {
		retries = 4
	}
	for attempt := 0; attempt < retries; attempt++ {
		n := s.sprayWalk(params, rng)
		if n == nil {
			break // looked empty
		}
		if s.claim(n) {
			s.unlink(n)
			s.size.Add(-1)
			return n.prio, n.value, true
		}
	}
	return s.DeleteMin()
}

// sprayWalk performs the random descent and returns a candidate live node,
// or nil if the list appears empty.
func (s *SkipList[T]) sprayWalk(params SprayParams, rng *xrand.Rand) *node[T] {
	h := params.Height
	if h <= 0 || h >= maxLevel {
		h = 8
	}
	jump := params.JumpLen
	if jump <= 0 {
		jump = h
	}
	descend := params.Descend
	if descend <= 0 {
		descend = 1
	}
	curr := s.head
	for layer := h; layer >= 0; layer -= descend {
		steps := rng.Intn(jump + 1)
		for i := 0; i < steps; i++ {
			nxt := curr.next[layer].Load()
			if nxt.isTail {
				break
			}
			curr = nxt
		}
		if layer == 0 {
			break
		}
	}
	// Advance to the first live node at layer 0 from the landing point.
	if curr == s.head {
		curr = curr.next[0].Load()
	}
	for !curr.isTail {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			return curr
		}
		curr = curr.next[0].Load()
	}
	return nil
}
