package pq

import "repro/internal/xrand"

// SeqSkipList is a sequential skip-list priority queue. It exists for the
// local-queue ablation (§4 investigated both skip lists and d-ary heaps as
// thread-local structures) and as the reference model for the concurrent
// skip list in internal/cskiplist. Duplicate priorities are allowed; ties
// pop in LIFO order of insertion.
type SeqSkipList[T any] struct {
	head   *seqSkipNode[T]
	levels int
	n      int
	rng    *xrand.Rand
}

const seqSkipMaxLevel = 24

type seqSkipNode[T any] struct {
	item Item[T]
	next [seqSkipMaxLevel]*seqSkipNode[T]
}

// NewSeqSkipList returns an empty skip list seeded for level coin flips.
func NewSeqSkipList[T any](seed uint64) *SeqSkipList[T] {
	return &SeqSkipList[T]{
		head:   &seqSkipNode[T]{},
		levels: 1,
		rng:    xrand.New(seed),
	}
}

// Len reports the number of queued tasks.
func (s *SeqSkipList[T]) Len() int { return s.n }

// Top returns the minimum priority, or InfPriority when empty.
func (s *SeqSkipList[T]) Top() uint64 {
	if s.head.next[0] == nil {
		return InfPriority
	}
	return s.head.next[0].item.P
}

func (s *SeqSkipList[T]) randomLevel() int {
	lvl := 1
	// Geometric with p = 1/2, capped at seqSkipMaxLevel.
	for lvl < seqSkipMaxLevel && s.rng.Uint64()&1 == 0 {
		lvl++
	}
	return lvl
}

// Push inserts a task.
func (s *SeqSkipList[T]) Push(p uint64, v T) {
	var preds [seqSkipMaxLevel]*seqSkipNode[T]
	cur := s.head
	for lvl := s.levels - 1; lvl >= 0; lvl-- {
		for cur.next[lvl] != nil && cur.next[lvl].item.P < p {
			cur = cur.next[lvl]
		}
		preds[lvl] = cur
	}
	lvl := s.randomLevel()
	for s.levels < lvl {
		preds[s.levels] = s.head
		s.levels++
	}
	node := &seqSkipNode[T]{item: Item[T]{P: p, V: v}}
	for i := 0; i < lvl; i++ {
		node.next[i] = preds[i].next[i]
		preds[i].next[i] = node
	}
	s.n++
}

// Pop removes and returns the minimum-priority task. The unlinked
// node's item and forward pointers are zeroed: a caller observing the
// returned value through an interface, or any stray reference to the
// node (iterator, debugger, heap dump), must not keep the payload — or
// a chain of successor nodes — reachable.
func (s *SeqSkipList[T]) Pop() (p uint64, v T, ok bool) {
	first := s.head.next[0]
	if first == nil {
		return InfPriority, v, false
	}
	for lvl := 0; lvl < s.levels; lvl++ {
		if s.head.next[lvl] == first {
			s.head.next[lvl] = first.next[lvl]
		}
	}
	for s.levels > 1 && s.head.next[s.levels-1] == nil {
		s.levels--
	}
	s.n--
	p, v = first.item.P, first.item.V
	var zero seqSkipNode[T]
	*first = zero
	return p, v, true
}

var _ Queue[int] = (*SeqSkipList[int])(nil)
