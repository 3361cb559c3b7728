package core

// An exhaustive interleaving check ("mini model checker") for the
// three-state steal-buffer word of heapQueue. The protocol is abstracted
// to its atomic steps — every load, CAS and store of state and top, and
// the plain reads and writes of the item array in between — and ALL
// interleavings of one owner and two thieves are enumerated. The owner
// is a claimant like the thieves: it takes its own published batch back,
// republishes in the same operation, and refills after a thief. In every
// execution
//
//   - each published batch is claimed exactly once (no duplication, no
//     loss, no cross-epoch claim),
//   - the item array is read only inside a claim→release window, by the
//     claimant, and holds that epoch's items when it is,
//   - the owner writes the array only while the buffer is released or its
//     own claim is open — never under a thief's open claim,
//   - a Top() that validates returns the top of the epoch it saw.
//
// This complements the stress tests: stress finds probable bugs,
// enumeration finds all bugs within the bounded scope.

import "testing"

const (
	modelEpochs = 8 // claims are counted per epoch below this
	noHolder    = -1
	ownerID     = 0 // thieves are 1, 2, ...
)

// model is the shared memory: the two atomic words, and the item array
// reduced to the epoch whose items it holds.
type model struct {
	state  uint64 // epoch<<2 | bufReleased | bufClaimed
	top    uint64 // epoch whose top priority the word holds
	items  uint64 // epoch whose items the array holds; 0 = cleared
	holder int    // the claimant inside an open claim→release window
	claims [modelEpochs]uint8
}

// claim is the winning CAS; copyOut and release are the rest of a
// claimant's window. They check the invariants at the step they model.
func (m *model) claim(t *testing.T, who int, s uint64) bool {
	if m.state != s {
		return false
	}
	if m.holder != noHolder {
		t.Fatalf("claimant %d won epoch %d inside claimant %d's window", who, s>>2, m.holder)
	}
	m.state = s | bufClaimed
	m.holder = who
	m.claims[s>>2]++
	return true
}

func (m *model) copyOut(t *testing.T, who int, s uint64) {
	if m.holder != who || m.state != s|bufClaimed {
		t.Fatalf("claimant %d read the items outside its window (state %#x, holder %d)", who, m.state, m.holder)
	}
	if m.items != s>>2 {
		t.Fatalf("claimant %d of epoch %d read the items of epoch %d", who, s>>2, m.items)
	}
	m.items = 0 // clear(q.buf)
}

// thief is the step machine of one stealFrom: Top() — load state, load
// top, load state again — and then Steal() — load state, CAS, copy out,
// store released.
type thief struct {
	pc       int
	s        uint64 // loaded state
	top      uint64 // loaded top
	attempts int    // stealFrom calls left
}

func (th *thief) step(t *testing.T, m *model, id int) {
	switch th.pc {
	case 0, 3: // Top / Steal: load state
		th.s = m.state
		if th.s&(bufClaimed|bufReleased) != 0 {
			th.finish()
			return
		}
		th.pc++
	case 1: // Top: load top
		th.top = m.top
		th.pc++
	case 2: // Top: validate
		if m.state != th.s {
			th.finish()
			return
		}
		if th.top != th.s>>2 {
			t.Fatalf("Top() validated epoch %d with the top of epoch %d", th.s>>2, th.top)
		}
		th.pc++
	case 4: // Steal: CAS
		if !m.claim(t, id, th.s) {
			th.finish()
			return
		}
		th.pc++
	case 5: // Steal: copy out and clear
		m.copyOut(t, id, th.s)
		th.pc++
	case 6: // Steal: store released
		m.state = th.s | bufClaimed | bufReleased
		m.holder = noHolder
		th.finish()
	}
}

func (th *thief) finish() { *th = thief{attempts: th.attempts - 1} }

// owner is the step machine of the owner's operations. A pop (rounds of
// them) takes the published batch back and republishes, or refills a
// released buffer; once rounds are used up the heap counts as empty, and
// the owner drains: it takes back what is still published and releases,
// until the buffer is released for good.
type owner struct {
	pc     int
	s      uint64
	rounds int  // pops with a non-empty heap left
	done   bool // drained
}

func (o *owner) step(t *testing.T, m *model) (progress bool) {
	switch o.pc {
	case 0: // load state
		o.s = m.state
		switch {
		case o.s&(bufClaimed|bufReleased) == 0:
			o.pc = 1 // published: take it back
		case o.s&bufReleased != 0 && o.rounds > 0:
			o.pc = 3 // released: refill
		case o.s&bufReleased != 0:
			o.done = true // released, heap empty: nothing left anywhere
		default:
			// A thief's claim is open. The real owner goes on with its
			// heap; here it just looks again.
			return false
		}
	case 1: // CAS
		if m.claim(t, ownerID, o.s) {
			o.s |= bufClaimed
			o.pc = 2
		} else {
			o.pc = 0 // a thief has it: the operation ends without a refill
		}
	case 2: // takeBack: copy out and clear
		m.copyOut(t, ownerID, o.s&^bufClaimed)
		o.pc = 3
	case 3: // refill: write the items, or release when the heap is empty
		if m.holder != noHolder && m.holder != ownerID || m.holder == noHolder && m.state&bufReleased == 0 {
			t.Fatalf("owner refilled a buffer it does not own (state %#x, holder %d)", m.state, m.holder)
		}
		if o.rounds == 0 {
			m.state = o.s | bufReleased
			m.holder = noHolder
			o.pc = 0
			return true
		}
		m.items = o.s>>2 + 1
		o.pc = 4
	case 4: // refill: store top
		m.top = o.s>>2 + 1
		o.pc = 5
	case 5: // refill: store state — publishes, and ends the owner's claim
		m.state = (o.s>>2 + 1) << 2
		m.holder = noHolder
		o.rounds--
		o.pc = 0
	}
	return true
}

// system is one global state; it is comparable, so visited states are
// skipped and the search is over states, not over paths.
type system struct {
	m  model
	ow owner
	th [2]thief
}

func explore(t *testing.T, sys system, seen map[system]bool) {
	if seen[sys] {
		return
	}
	seen[sys] = true
	terminal := sys.ow.done
	for i := range sys.th {
		terminal = terminal && sys.th[i].attempts == 0
	}
	if terminal {
		last := sys.m.state >> 2 // epochs 1..last were published
		for epoch, c := range sys.m.claims {
			want := uint8(0)
			if epoch >= 1 && uint64(epoch) <= last {
				want = 1
			}
			if c != want {
				t.Fatalf("epoch %d claimed %d times, want %d (published %d)", epoch, c, want, last)
			}
		}
		if sys.m.holder != noHolder || sys.m.state&bufReleased == 0 {
			t.Fatalf("terminal state %#x with holder %d: a window never closed", sys.m.state, sys.m.holder)
		}
		return
	}
	if !sys.ow.done {
		next := sys
		if next.ow.step(t, &next.m) {
			explore(t, next, seen)
		}
	}
	for i := range sys.th {
		if sys.th[i].attempts > 0 {
			next := sys
			next.th[i].step(t, &next.m, i+1)
			explore(t, next, seen)
		}
	}
}

func TestStealBufferProtocolAllInterleavings(t *testing.T) {
	for _, c := range []struct {
		name             string
		rounds, attempts int
		published        bool // start with epoch 1 published instead of an empty queue
	}{
		{"from empty", 3, 2, false},
		{"from published", 2, 2, true},
		{"one round, three attempts", 1, 3, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := system{
				m:  model{state: bufClaimed | bufReleased, holder: noHolder},
				ow: owner{rounds: c.rounds},
			}
			if c.published {
				sys.m = model{state: 1 << 2, top: 1, items: 1, holder: noHolder}
			}
			for i := range sys.th {
				sys.th[i].attempts = c.attempts
			}
			seen := map[system]bool{}
			explore(t, sys, seen)
			t.Logf("%d states", len(seen))
		})
	}
}
