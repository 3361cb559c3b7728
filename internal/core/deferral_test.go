package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pq"
)

// deferralTask is the payload of TestOwnerDeferral: 64 bytes, so the
// allocator gives each task an object of its own and a cleanup on it
// reports exactly that task's release.
type deferralTask struct {
	id int
	_  [56]byte
}

// TestOwnerDeferral drives one heapQueue as its lone owner through a
// random interleaving of PopLocal (whose heap removal is deferred),
// PushLocal right after a pop (the ReplaceTop case) and on its own,
// PushLocalBatch, PopLocalBatch, TopLocal, and a thief's Steal, which
// makes the owner refill and take batches back. Against an oracle of the
// tasks the owner holds it checks that every pop returns the smallest
// priority held — with one owner and nothing in flight the local view is
// exact — that TopLocal is that priority, and that every task comes out
// exactly once, by a pop or a steal. At the end, once TopLocal has
// settled the last deferred pop, every payload that came out must have
// been released by the queue: the deferral holds one in the heap's root
// only until the owner's next operation.
func TestOwnerDeferral(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	q := newHeapQueue[*deferralTask](pq.DefaultArity, 4)
	var released atomic.Int64 // payloads whose cleanup has run
	var held []pq.Item[int]   // the oracle: (priority, id) of the tasks the owner holds
	var taken []bool          // id -> came out already
	out := 0                  // tasks that came out
	newTask := func() (uint64, *deferralTask) {
		p := uint64(rng.Intn(64)) // few distinct priorities: ties everywhere
		task := &deferralTask{id: len(taken)}
		runtime.AddCleanup(task, func(r *atomic.Int64) { r.Add(1) }, &released)
		held = append(held, pq.Item[int]{P: p, V: task.id})
		taken = append(taken, false)
		return p, task
	}
	minHeld := func() uint64 {
		m := uint64(pq.InfPriority)
		for _, it := range held {
			m = min(m, it.P)
		}
		return m
	}
	// takeOut checks one task that came out and drops it from the oracle.
	takeOut := func(op string, p uint64, task *deferralTask, smallest bool) {
		t.Helper()
		if smallest && p != minHeld() {
			t.Fatalf("%s returned priority %d, the smallest held is %d", op, p, minHeld())
		}
		i := slices.IndexFunc(held, func(it pq.Item[int]) bool { return it.V == task.id })
		if i < 0 || taken[task.id] || held[i].P != p {
			t.Fatalf("%s returned task %d at priority %d: not held, or under another priority", op, task.id, p)
		}
		taken[task.id] = true
		held = slices.Delete(held, i, i+1)
		out++
	}
	var batch []pq.Item[*deferralTask]
	pop := func() {
		t.Helper()
		p, task, ok := q.PopLocal()
		if ok != (len(held) > 0) {
			t.Fatalf("PopLocal ok = %v with %d held", ok, len(held))
		}
		if ok {
			takeOut("PopLocal", p, task, true)
		}
	}
	for step := 0; step < 20000; step++ {
		// Grow to a few hundred tasks, then shrink to none, and again, so
		// the heap passes through every small size and partial sibling
		// group. The extra pushes follow whatever the last op was, a
		// deferred pop included.
		if step/2000%2 == 0 && len(held) < 400 {
			q.PushLocal(newTask())
			q.PushLocal(newTask())
		}
		switch r := rng.Intn(12); {
		case r < 3:
			pop()
		case r < 6:
			pop()
			q.PushLocal(newTask())
		case r < 7:
			batch = batch[:0]
			for k := rng.Intn(6); k > 0; k-- {
				p, task := newTask()
				batch = append(batch, pq.Item[*deferralTask]{P: p, V: task})
			}
			q.PushLocalBatch(batch)
			clear(batch)
		case r < 9:
			k := 1 + rng.Intn(5)
			batch = q.PopLocalBatch(k, batch[:0])
			if want := min(k, len(held)); len(batch) != want {
				t.Fatalf("PopLocalBatch(%d) returned %d tasks with %d held", k, len(batch), len(held))
			}
			for _, it := range batch {
				takeOut("PopLocalBatch", it.P, it.V, true)
			}
			clear(batch)
		case r < 10:
			if top := q.TopLocal(); top != minHeld() {
				t.Fatalf("TopLocal = %d, the smallest held is %d", top, minHeld())
			}
		default:
			batch = q.Steal(batch[:0])
			for _, it := range batch {
				takeOut("Steal", it.P, it.V, false)
			}
			clear(batch)
		}
	}
	pop()                                      // a deferred pop is owed now (if anything was held) ...
	if top := q.TopLocal(); top != minHeld() { // ... and TopLocal settles it
		t.Fatalf("TopLocal = %d, the smallest held is %d", top, minHeld())
	}
	for attempt := 0; attempt < 20 && released.Load() < int64(out); attempt++ {
		runtime.GC() // cleanups run asynchronously after a cycle
		time.Sleep(time.Millisecond)
	}
	if got := released.Load(); got != int64(out) {
		t.Fatalf("the queue retains %d of the %d payloads that came out of it", int64(out)-got, out)
	}
	for len(held) > 0 {
		pop()
	}
	if _, _, ok := q.PopLocal(); ok {
		t.Fatal("PopLocal found a task after the oracle ran dry")
	}
	runtime.KeepAlive(q)
}
