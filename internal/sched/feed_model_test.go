package sched

// An exhaustive interleaving check of Stream's end-of-stream handshake
// (feedGate), the protocol that keeps Pending's Close after the final
// external Inc once workers other than worker 0 feed too. Every atomic
// step is abstracted — the ended and inFeed words, Pending's add and
// closed flag, the PushN that makes a task poppable — and ALL
// interleavings of worker 0 ending the stream (raise ended, wait for
// inFeed to drain, Flush: Inc then PushN, Close), one idle feeder polling
// the feed (announce, re-check ended, receive a task, Inc, PushN, leave)
// and a consumer that pops and retires published tasks are enumerated.
// In every execution
//
//   - Quiesced() never holds while a received task is unregistered,
//   - no Inc follows the Close,
//   - and at the end every received task has been retired.
//
// The same search over the protocol without the feeder's re-check, or
// without worker 0's wait, must find the first two violations: the check
// can fail.

import "testing"

// gateVariant selects which halves of the handshake the model runs.
type gateVariant struct {
	recheck bool // the feeder re-checks ended after announcing itself
	wait    bool // worker 0 waits for inFeed to drain before it closes
}

// feedModel is one global state; it is comparable, so visited states
// are skipped and the search is over states, not over paths.
type feedModel struct {
	// shared memory
	ended  bool
	inFeed int
	n      int  // Pending's count
	closed bool // Pending's closed flag
	queued int  // published tasks not yet popped
	// worker 0: pc 0 raise ended, 1 wait, 2 Inc, 3 PushN, 4 Close, 5 done.
	// It enters holding one received task its sink has not flushed.
	w0 int
	// the feeder: pc 0 announce, 1 re-check, 2 receive, 3 Inc, 4 PushN,
	// 5 leave; polls counts the feed polls it has left.
	f, polls int
	received int // tasks received from outside, worker 0's included
	retired  int
}

// unregistered reports whether some received task is not yet covered by
// Pending: worker 0's before its Inc, the feeder's between receive and Inc.
func (m *feedModel) unregistered() bool { return m.w0 < 3 || m.f == 3 }

// The violations the search looks for.
const (
	quiescedEarly = "Quiesced() with a received task unregistered"
	incAfterClose = "an external Inc after Close"
	unfinished    = "a terminal state not quiesced, or a task lost"
)

// feedSearch is one exhaustive search: the states visited, and the first
// example of each violation found.
type feedSearch struct {
	v     gateVariant
	seen  map[feedModel]bool
	found map[string]feedModel
}

func (fs *feedSearch) report(kind string, m feedModel) {
	if _, ok := fs.found[kind]; !ok {
		fs.found[kind] = m
	}
}

// successors returns every state one step away.
func (fs *feedSearch) successors(m feedModel) (next []feedModel) {
	inc := func(s *feedModel) {
		if s.closed {
			fs.report(incAfterClose, m)
		}
		s.n++
	}
	// worker 0
	if s := m; s.w0 < 5 {
		switch s.w0 {
		case 0:
			s.ended = true
			s.w0 = 1
			if !fs.v.wait {
				s.w0 = 2
			}
		case 1:
			if s.inFeed == 0 {
				s.w0 = 2
			}
		case 2:
			inc(&s)
			s.w0 = 3
		case 3:
			s.queued++
			s.w0 = 4
		case 4:
			s.closed = true
			s.w0 = 5
		}
		if s != m {
			next = append(next, s)
		}
	}
	// the feeder
	if s := m; s.polls > 0 {
		switch s.f {
		case 0:
			s.inFeed++
			s.f = 1
		case 1:
			s.f = 2
			if fs.v.recheck && s.ended {
				s.f = 5
			}
		case 2:
			s.received++
			s.f = 3
		case 3:
			inc(&s)
			s.f = 4
		case 4:
			s.queued++
			s.f = 5
		case 5:
			s.inFeed--
			s.polls--
			s.f = 0
		}
		next = append(next, s)
	}
	// the consumer: pop and retire one published task
	if s := m; s.queued > 0 {
		s.queued--
		s.n--
		s.retired++
		next = append(next, s)
	}
	return next
}

// explore visits every state reachable from m.
func (fs *feedSearch) explore(m feedModel) {
	if fs.seen[m] {
		return
	}
	fs.seen[m] = true
	if m.closed && m.n == 0 && m.unregistered() {
		fs.report(quiescedEarly, m)
	}
	next := fs.successors(m)
	if len(next) == 0 && (!m.closed || m.n != 0 || m.retired != m.received) {
		fs.report(unfinished, m)
	}
	for _, s := range next {
		fs.explore(s)
	}
}

func TestFeedGateModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    gateVariant
		want []string // the violations the search must find
	}{
		{"protocol", gateVariant{recheck: true, wait: true}, nil},
		{"no re-check", gateVariant{recheck: false, wait: true}, []string{quiescedEarly, incAfterClose}},
		{"no wait", gateVariant{recheck: true, wait: false}, []string{quiescedEarly, incAfterClose}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for polls := 1; polls <= 3; polls++ {
				fs := &feedSearch{v: tc.v, seen: map[feedModel]bool{}, found: map[string]feedModel{}}
				fs.explore(feedModel{polls: polls, received: 1})
				for _, kind := range tc.want {
					if _, ok := fs.found[kind]; !ok {
						t.Errorf("%d feeder polls: the search missed %s", polls, kind)
					}
				}
				if tc.want == nil {
					for kind, m := range fs.found {
						t.Errorf("%d feeder polls, %d states: %s, e.g. at %+v", polls, len(fs.seen), kind, m)
					}
				}
			}
		})
	}
}
