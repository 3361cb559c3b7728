package klsm

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/coarse"
	"repro/internal/pq"
	"repro/internal/sched"
)

// TestConfigDefaults pins the zero-value and sentinel handling of the
// Relaxation knob.
func TestConfigDefaults(t *testing.T) {
	c := Config{Workers: 2}
	c.normalize()
	if c.Relaxation != DefaultRelaxation {
		t.Fatalf("zero Relaxation normalized to %d, want %d", c.Relaxation, DefaultRelaxation)
	}
	c = Config{Workers: 2, Relaxation: Strict}
	c.normalize()
	if c.Relaxation != 0 {
		t.Fatalf("Strict normalized to %d, want 0", c.Relaxation)
	}
	c = Config{Workers: 2, Relaxation: 64}
	c.normalize()
	if c.Relaxation != 64 {
		t.Fatalf("explicit Relaxation mangled to %d", c.Relaxation)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Workers=0 accepted")
		}
	}()
	New[int](Config{})
}

func TestWorkerIndexOutOfRangePanics(t *testing.T) {
	s := New[int](Config{Workers: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range worker index accepted")
		}
	}()
	s.Worker(2)
}

// TestEmptyPops: pops on an empty k-LSM fail cleanly and are accounted,
// in both the relaxed and the strict configuration.
func TestEmptyPops(t *testing.T) {
	for _, k := range []int{Strict, 4, DefaultRelaxation} {
		s := New[int](Config{Workers: 2, Relaxation: k})
		w := s.Worker(0)
		if _, _, ok := w.Pop(); ok {
			t.Fatalf("k=%d: Pop on empty succeeded", k)
		}
		w.Push(5, 50)
		if p, v, ok := w.Pop(); !ok || p != 5 || v != 50 {
			t.Fatalf("k=%d: Pop = (%d,%d,%v), want (5,50,true)", k, p, v, ok)
		}
		if _, _, ok := w.Pop(); ok {
			t.Fatalf("k=%d: Pop after drain succeeded", k)
		}
		st := s.Stats()
		if st.Pushes != 1 || st.Pops != 1 || st.EmptyPops != 2 {
			t.Fatalf("k=%d: stats %+v, want 1 push / 1 pop / 2 empty", k, st)
		}
	}
}

// TestSingleWorkerSortedDrain: one worker with k >= n never spills, so
// the whole run exercises the local LSM alone and must drain in exact
// priority order (a single-owner LSM is an exact priority queue).
func TestSingleWorkerSortedDrain(t *testing.T) {
	const n = 5000
	s := New[int](Config{Workers: 1, Relaxation: n + 1})
	w := s.Worker(0)
	rng := rand.New(rand.NewSource(1))
	want := make([]uint64, n)
	for i := range want {
		p := uint64(rng.Intn(100000))
		want[i] = p
		w.Push(p, i)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if st := s.Stats(); st.LockFails != 0 {
		t.Fatalf("un-spilled local run took the global lock: %+v", st)
	}
	for i := 0; i < n; i++ {
		p, _, ok := w.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if p != want[i] {
			t.Fatalf("pop %d returned priority %d, want %d", i, p, want[i])
		}
	}
	if _, _, ok := w.Pop(); ok {
		t.Fatal("drained queue still pops")
	}
}

// TestSingleWorkerSpillsSorted: a single worker with a tiny k spills
// almost everything through the global LSM; with only one worker there
// is nowhere for better tasks to hide, so the drain must still be
// exactly sorted.
func TestSingleWorkerSpillsSorted(t *testing.T) {
	const n = 3000
	s := New[int](Config{Workers: 1, Relaxation: 4})
	w := s.Worker(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		w.Push(uint64(rng.Intn(5000)), i)
	}
	last := uint64(0)
	for i := 0; i < n; i++ {
		p, _, ok := w.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if p < last {
			t.Fatalf("pop %d inverted: %d after %d (single worker must be exact)", i, p, last)
		}
		last = p
	}
	if st := s.Stats(); st.Pops != n || st.Pushes != n {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestStrictMatchesCoarseBaseline: with Relaxation=Strict the k-LSM
// must behave exactly like the coarse-locked global heap — same pop
// sequence for the same pushes (distinct priorities make the order
// unambiguous).
func TestStrictMatchesCoarseBaseline(t *testing.T) {
	const n = 2000
	k := New[int](Config{Workers: 2, Relaxation: Strict})
	c := coarse.New[int](coarse.Config{Workers: 2})
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(n)
	kw := []sched.Worker[int]{k.Worker(0), k.Worker(1)}
	cw := []sched.Worker[int]{c.Worker(0), c.Worker(1)}
	for i, p := range perm {
		kw[i%2].Push(uint64(p), p)
		cw[i%2].Push(uint64(p), p)
	}
	// Interleave pops across both handles; every pop must agree.
	for i := 0; i < n; i++ {
		kp, kv, kok := kw[i%2].Pop()
		cp, cv, cok := cw[i%2].Pop()
		if !kok || !cok {
			t.Fatalf("pop %d: klsm ok=%v coarse ok=%v", i, kok, cok)
		}
		if kp != cp || kv != cv {
			t.Fatalf("pop %d: klsm (%d,%d) != coarse (%d,%d)", i, kp, kv, cp, cv)
		}
		if kp != uint64(i) {
			t.Fatalf("pop %d: strict k-LSM returned priority %d, want %d", i, kp, i)
		}
	}
}

// TestStrictCrossWorkerVisibility: in strict mode nothing is buffered
// locally, so a task pushed by one worker is immediately poppable by
// another.
func TestStrictCrossWorkerVisibility(t *testing.T) {
	s := New[string](Config{Workers: 2, Relaxation: Strict})
	s.Worker(0).Push(7, "x")
	if p, v, ok := s.Worker(1).Pop(); !ok || p != 7 || v != "x" {
		t.Fatalf("Pop = (%d,%q,%v), want (7,x,true)", p, v, ok)
	}
}

// TestOwnerRecoversBufferedTask: a relaxed worker's buffered task is
// invisible to others but must always be recoverable by its owner.
func TestOwnerRecoversBufferedTask(t *testing.T) {
	s := New[int](Config{Workers: 2, Relaxation: 64})
	s.Worker(0).Push(42, 7)
	// The task sits in worker 0's local LSM; worker 1 sees emptiness.
	if _, _, ok := s.Worker(1).Pop(); ok {
		t.Fatal("worker 1 popped a task buried in worker 0's local LSM")
	}
	if p, v, ok := s.Worker(0).Pop(); !ok || p != 42 || v != 7 {
		t.Fatalf("owner Pop = (%d,%d,%v), want (42,7,true)", p, v, ok)
	}
}

// TestRelaxationBoundHolds: the local LSM must never hold more than k
// tasks after a Push returns — the invariant behind the documented
// (P−1)·k rank-error bound.
func TestRelaxationBoundHolds(t *testing.T) {
	for _, k := range []int{0, 1, 4, 64} {
		relax := k
		if relax == 0 {
			relax = Strict
		}
		s := New[int](Config{Workers: 1, Relaxation: relax})
		w := s.Worker(0)
		rng := rand.New(rand.NewSource(int64(k) + 10))
		for i := 0; i < 2000; i++ {
			w.Push(uint64(rng.Intn(1000)), i)
			if got := s.workers[0].local.n; got > k {
				t.Fatalf("k=%d: local LSM holds %d tasks after push %d", k, got, i)
			}
		}
	}
}

// TestGeometricBlockInvariant: local blocks keep geometrically
// decreasing live sizes (each block strictly smaller than its
// predecessor immediately after an insert), which is what bounds the
// per-operation merge and scan costs logarithmically.
func TestGeometricBlockInvariant(t *testing.T) {
	var l lsm[int]
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4096; i++ {
		l.insertItem(uint64(rng.Intn(1<<20)), i)
		for b := 1; b < len(l.blocks); b++ {
			if l.blocks[b].size() >= l.blocks[b-1].size() {
				t.Fatalf("after insert %d: block %d size %d >= block %d size %d",
					i, b, l.blocks[b].size(), b-1, l.blocks[b-1].size())
			}
		}
	}
	if l.n != 4096 {
		t.Fatalf("lsm count %d, want 4096", l.n)
	}
	// The block count must stay logarithmic in n.
	if len(l.blocks) > 13 {
		t.Fatalf("4096 inserts left %d blocks; merge discipline broken", len(l.blocks))
	}
}

// TestLSMPopReleasesPayloads: popped slots are zeroed so payloads do
// not pin garbage (mirrors the DHeap discipline).
func TestLSMPopReleasesPayloads(t *testing.T) {
	var l lsm[*int]
	x := new(int)
	l.insertItem(1, x)
	l.insertItem(2, new(int))
	b := l.blocks[0]
	if _, ok := l.pop(); !ok {
		t.Fatal("pop failed")
	}
	if b.items[0].V != nil {
		t.Fatal("popped slot still references its payload")
	}
}

// TestConcurrentSpillMerge hammers the spill/merge path: many workers,
// tiny relaxation (constant spilling and global popping), colliding
// priorities, run under -race in CI. Every task must be popped exactly
// once and the stats must balance.
func TestConcurrentSpillMerge(t *testing.T) {
	const workers = 8
	perWorker := 4000
	if testing.Short() {
		perWorker = 600
	}
	for _, k := range []int{Strict, 2, 16} {
		s := New[uint32](Config{Workers: workers, Relaxation: k})
		total := workers * perWorker
		var counts []int
		countsCh := make(chan []uint32, workers)
		var pending sched.Pending
		pending.Inc(int64(total))

		var wg sync.WaitGroup
		for wid := 0; wid < workers; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				w := s.Worker(wid)
				var popped []uint32
				next := 0
				var b sched.Backoff
				for {
					if next < perWorker {
						v := uint32(wid*perWorker + next)
						w.Push(uint64(v%127), v)
						next++
					}
					if _, v, ok := w.Pop(); ok {
						popped = append(popped, v)
						pending.Dec()
						b.Reset()
						continue
					}
					if next < perWorker {
						continue
					}
					if pending.Load() == 0 {
						countsCh <- popped
						return
					}
					b.Wait()
				}
			}(wid)
		}
		wg.Wait()
		close(countsCh)

		counts = make([]int, total)
		for popped := range countsCh {
			for _, v := range popped {
				counts[v]++
			}
		}
		for v, c := range counts {
			if c != 1 {
				t.Fatalf("k=%d: task %d popped %d times", k, v, c)
			}
		}
		st := s.Stats()
		if st.Pushes != uint64(total) || st.Pops != uint64(total) {
			t.Fatalf("k=%d: stats after drain: %+v", k, st)
		}
	}
}

// TestGlobalTopCacheCoherent: the lock-free cached top always reflects
// the global LSM's true minimum once the lock is released.
func TestGlobalTopCacheCoherent(t *testing.T) {
	s := New[int](Config{Workers: 1, Relaxation: Strict})
	w := s.Worker(0)
	if got := s.global.top.Load(); got != pq.InfPriority {
		t.Fatalf("empty global top = %d, want InfPriority", got)
	}
	w.Push(9, 1)
	w.Push(3, 2)
	if got := s.global.top.Load(); got != 3 {
		t.Fatalf("global top = %d, want 3", got)
	}
	w.Pop()
	if got := s.global.top.Load(); got != 9 {
		t.Fatalf("global top after pop = %d, want 9", got)
	}
	w.Pop()
	if got := s.global.top.Load(); got != pq.InfPriority {
		t.Fatalf("drained global top = %d, want InfPriority", got)
	}
}
