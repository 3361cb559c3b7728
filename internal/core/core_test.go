package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pq"
	"repro/internal/sched"
)

// variants enumerates the two SMQ flavours for shared tests.
func variants() map[string]func(cfg Config) *SMQ[int] {
	return map[string]func(cfg Config) *SMQ[int]{
		"heap":     NewStealingMQ[int],
		"skiplist": NewStealingMQSkipList[int],
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{Workers: 2}
	c.normalize()
	if c.StealSize != 16 || c.StealProb != 1.0/32 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	c = Config{Workers: 2, StealProb: -1}
	c.normalize()
	if c.StealProb != 0 {
		t.Fatalf("negative StealProb should normalize to 0, got %v", c.StealProb)
	}
}

// TestLoneWorkerFlipsNoCoin: with one worker there is no victim, so Pop
// and PopN flip no steal coin and leave the worker's generator untouched,
// whatever StealProb says.
func TestLoneWorkerFlipsNoCoin(t *testing.T) {
	for name, mk := range variants() {
		for _, p := range []float64{0, 0.5, 1} {
			s := mk(Config{Workers: 1, StealProb: p})
			w := &s.workers[0]
			for i := range 64 {
				w.Push(uint64(64-i), i)
			}
			before := w.rng
			dst := make([]sched.Task[int], 8)
			for w.Pop(); w.PopN(dst) > 0; w.Pop() {
			}
			if w.rng != before {
				t.Errorf("%s StealProb=%v: a lone worker's pops drew from its generator", name, p)
			}
		}
	}
}

// TestStealGapIsGeometric checks the countdown's draw against
// Geometric(p) on {0, 1, ...}, the failures before the first success of
// Bernoulli(p) trials: mean (1-p)/p and P(gap = 0) = p, at the scale the
// scheduler computes from StealProb. p = 1 gives every gap 0, and a p so
// small that 1/ln(1-p) is -Inf still gives a bounded gap.
func TestStealGapIsGeometric(t *testing.T) {
	const draws = 400_000
	for _, p := range []float64{1.0 / 32, 1.0 / 8, 1.0 / 2, 1} {
		s := NewStealingMQ[int](Config{Workers: 2, StealProb: p})
		r := &s.workers[0].rng
		var sum float64
		zeros := 0
		for range draws {
			g := stealGap(r, s.gapScale)
			sum += float64(g)
			if g == 0 {
				zeros++
			}
		}
		mean, want := sum/draws, (1-p)/p
		// Standard error of the mean: sqrt(1-p)/p/sqrt(draws).
		if se := math.Sqrt(1-p) / p / math.Sqrt(draws); math.Abs(mean-want) > 5*se {
			t.Errorf("p=%v: mean gap %.4f, want %.4f ± %.4f", p, mean, want, 5*se)
		}
		zeroFrac := float64(zeros) / draws
		if se := math.Sqrt(p * (1 - p) / draws); math.Abs(zeroFrac-p) > 5*se {
			t.Errorf("p=%v: P(gap = 0) = %.4f, want %.4f ± %.4f", p, zeroFrac, p, 5*se)
		}
	}
	for _, p := range []float64{1e-300, 5e-324} {
		s := NewStealingMQ[int](Config{Workers: 2, StealProb: p})
		for range 1000 {
			if g := stealGap(&s.workers[0].rng, s.gapScale); g < 1<<53 || g > maxStealGap {
				t.Fatalf("p=%v: gap %d, want a huge gap no larger than %d", p, g, uint64(maxStealGap))
			}
		}
	}
}

// TestStealAttemptsKeepTheSlotRate: with a victim that is never better,
// every steal attempt fails and is counted, so StealFails over the delete
// slots served is the per-slot attempt rate, which must be StealProb
// whether the slots come one per Pop or eight per PopN.
func TestStealAttemptsKeepTheSlotRate(t *testing.T) {
	const slots = 200_000
	for name, mk := range variants() {
		for _, p := range []float64{1.0 / 8, 1.0 / 2} {
			for _, batch := range []int{1, 8} {
				s := mk(Config{Workers: 2, StealProb: p})
				w := &s.workers[0]
				for i := range 64 {
					w.Push(uint64(i), i)
				}
				dst := make([]sched.Task[int], batch)
				for served := 0; served < slots; {
					var k int
					if batch == 1 {
						pr, v, ok := w.Pop()
						if ok {
							k, dst[0] = 1, sched.Task[int]{P: pr, V: v}
						}
					} else {
						k = w.PopN(dst)
					}
					if k == 0 {
						t.Fatalf("%s p=%v batch %d: pop failed with tasks queued", name, p, batch)
					}
					for _, it := range dst[:k] {
						w.Push(it.P, it.V)
					}
					served += k
				}
				st := s.Stats()
				rate := float64(st.StealFails) / float64(st.Pops)
				if se := math.Sqrt(p * (1 - p) / float64(st.Pops)); math.Abs(rate-p) > 5*se || st.Steals != 0 {
					t.Errorf("%s p=%v batch %d: %d steal attempts over %d slots (%.4f), %d steals; want rate %.4f",
						name, p, batch, st.StealFails, st.Pops, rate, st.Steals, p)
				}
			}
		}
	}
}

func TestZeroWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Workers=0 did not panic")
		}
	}()
	NewStealingMQ[int](Config{})
}

func TestWorkerIndexPanics(t *testing.T) {
	s := NewStealingMQ[int](Config{Workers: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Worker did not panic")
		}
	}()
	s.Worker(2)
}

func TestSingleWorkerDrainSorted(t *testing.T) {
	// With one worker and no stealing possible, the SMQ must behave as an
	// exact priority queue (modulo the buffer holding the top batch: the
	// owner pops heap-first, so order can deviate by at most StealSize).
	for name, mk := range variants() {
		s := mk(Config{Workers: 1, StealSize: 4})
		w := s.Worker(0)
		const n = 1000
		for i := n; i > 0; i-- {
			w.Push(uint64(i), i)
		}
		got := make([]uint64, 0, n)
		for {
			p, _, ok := w.Pop()
			if !ok {
				break
			}
			got = append(got, p)
		}
		if len(got) != n {
			t.Fatalf("%s: popped %d, want %d", name, len(got), n)
		}
		// All values must be present exactly once.
		sorted := append([]uint64(nil), got...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, p := range sorted {
			if p != uint64(i+1) {
				t.Fatalf("%s: multiset mismatch at %d: %d", name, i, p)
			}
		}
		// Rank relaxation bound: element k may appear at most StealSize
		// positions early/late for the single-worker heap variant.
		for i, p := range got {
			if d := int(p) - (i + 1); d > 2*4+1 || d < -(2*4+1) {
				t.Errorf("%s: rank displacement %d at position %d too large", name, d, i)
			}
		}
	}
}

func TestNoLostTasksConcurrent(t *testing.T) {
	// The fundamental scheduler invariant: every pushed task is popped
	// exactly once, across workers, with stealing active.
	for name, mk := range variants() {
		for _, workers := range []int{2, 4, 8} {
			s := mk(Config{Workers: workers, StealProb: 0.25, StealSize: 4, Seed: uint64(workers)})
			const perWorker = 5000
			total := workers * perWorker
			var pending sched.Pending
			pending.Inc(int64(total))
			seen := make([]int32, total)
			var mu sync.Mutex
			dup := false
			var wg sync.WaitGroup
			for wid := 0; wid < workers; wid++ {
				wg.Add(1)
				go func(wid int) {
					defer wg.Done()
					w := s.Worker(wid)
					for i := 0; i < perWorker; i++ {
						v := wid*perWorker + i
						w.Push(uint64(v%977), v)
					}
					var b sched.Backoff
					for pending.Load() != 0 {
						_, v, ok := w.Pop()
						if !ok {
							b.Wait()
							continue
						}
						b.Reset()
						mu.Lock()
						seen[v]++
						if seen[v] > 1 {
							dup = true
						}
						mu.Unlock()
						pending.Dec()
					}
				}(wid)
			}
			wg.Wait()
			if dup {
				t.Fatalf("%s/%d: duplicated task", name, workers)
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("%s/%d: task %d seen %d times", name, workers, v, c)
				}
			}
			st := s.Stats()
			if st.Pushes != uint64(total) || st.Pops != uint64(total) {
				t.Fatalf("%s/%d: stats %+v, want %d pushes/pops", name, workers, st, total)
			}
		}
	}
}

func TestStealingHappens(t *testing.T) {
	// Load all tasks into worker 0's queue; worker 1 must obtain tasks
	// exclusively by stealing. Worker 0 stops halfway until worker 1 has
	// popped something: otherwise it can drain all its work before worker
	// 1's goroutine first polls (a few hundred microseconds), leaving no
	// overlap in which to steal.
	for name, mk := range variants() {
		s := mk(Config{Workers: 2, StealProb: 0.5, StealSize: 4})
		w0 := s.Worker(0)
		const n = 4000
		for i := 0; i < n; i++ {
			w0.Push(uint64(i), i)
		}
		var pending sched.Pending
		pending.Inc(n)
		var wg sync.WaitGroup
		var popped [2]atomic.Int64
		for wid := 0; wid < 2; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				w := s.Worker(wid)
				var b sched.Backoff
				for pending.Load() != 0 {
					_, _, ok := w.Pop()
					if !ok {
						b.Wait()
						continue
					}
					b.Reset()
					pending.Dec()
					if popped[wid].Add(1) == n/2 && wid == 0 {
						for deadline := time.Now().Add(10 * time.Second); popped[1].Load() == 0 && time.Now().Before(deadline); {
							runtime.Gosched()
						}
					}
				}
			}(wid)
		}
		wg.Wait()
		if got := popped[0].Load() + popped[1].Load(); got != n {
			t.Fatalf("%s: popped %d+%d, want %d", name, popped[0].Load(), popped[1].Load(), n)
		}
		if popped[1].Load() == 0 {
			t.Errorf("%s: worker 1 never stole any task", name)
		}
		st := s.Stats()
		if st.Steals == 0 {
			t.Errorf("%s: stats report zero steals: %+v", name, st)
		}
		if st.StolenTask < st.Steals {
			t.Errorf("%s: StolenTask %d < Steals %d", name, st.StolenTask, st.Steals)
		}
	}
}

func TestStealProbZeroStillTerminates(t *testing.T) {
	// With StealProb=0, stealing only happens on empty local queues; the
	// system must still drain fully (work-stealing fallback).
	for name, mk := range variants() {
		s := mk(Config{Workers: 4, StealProb: -1})
		w0 := s.Worker(0)
		const n = 2000
		for i := 0; i < n; i++ {
			w0.Push(uint64(i), i)
		}
		var pending sched.Pending
		pending.Inc(n)
		var wg sync.WaitGroup
		for wid := 0; wid < 4; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				w := s.Worker(wid)
				var b sched.Backoff
				for pending.Load() != 0 {
					if _, _, ok := w.Pop(); ok {
						pending.Dec()
						b.Reset()
					} else {
						b.Wait()
					}
				}
			}(wid)
		}
		wg.Wait()
		if got := s.Stats().Pops; got != n {
			t.Fatalf("%s: %d pops, want %d", name, got, n)
		}
	}
}

func TestNUMAVariantCorrect(t *testing.T) {
	for name, mk := range variants() {
		s := mk(Config{Workers: 4, NUMANodes: 2, NUMAWeightK: 8, StealProb: 0.5})
		var pending sched.Pending
		const n = 4000
		pending.Inc(n)
		var wg sync.WaitGroup
		var popped [4]int
		for wid := 0; wid < 4; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				w := s.Worker(wid)
				for i := 0; i < n/4; i++ {
					w.Push(uint64(i), i)
				}
				var b sched.Backoff
				for pending.Load() != 0 {
					if _, _, ok := w.Pop(); ok {
						popped[wid]++
						pending.Dec()
						b.Reset()
					} else {
						b.Wait()
					}
				}
			}(wid)
		}
		wg.Wait()
		total := popped[0] + popped[1] + popped[2] + popped[3]
		if total != n {
			t.Fatalf("%s: popped %d, want %d", name, total, n)
		}
	}
}

func TestHeapQueueBufferProtocol(t *testing.T) {
	q := newHeapQueue[int](4)
	if q.Top() != pq.InfPriority {
		t.Fatal("empty queue advertises a top")
	}
	if got := q.Steal(nil); len(got) != 0 {
		t.Fatalf("steal from empty returned %v", got)
	}
	// The first push publishes immediately (the buffer starts out
	// released): the buffer holds just task 1, the rest go to the heap.
	for i := 1; i <= 14; i++ {
		q.PushLocal(uint64(i), i)
	}
	if q.Top() != 1 {
		t.Fatalf("Top = %d, want 1 (first published task)", q.Top())
	}
	// First steal takes the published batch (the singleton [1]).
	got := q.Steal(nil)
	if len(got) != 1 || got[0].P != 1 {
		t.Fatalf("stole %v, want [1]", got)
	}
	// Second steal fails until the owner refills.
	if got := q.Steal(nil); len(got) != 0 {
		t.Fatalf("double steal returned %v", got)
	}
	// The owner pops its own best task (2) and only then refills the
	// released buffer, with the batch it would run next (3..6).
	if p, _, ok := q.PopLocal(); !ok || p != 2 {
		t.Fatalf("owner popped %d (ok=%v), want 2", p, ok)
	}
	if q.Top() != 3 || q.TopLocal() != 3 {
		t.Fatalf("published top = %d, owner's top = %d, want 3 and 3", q.Top(), q.TopLocal())
	}
	// Nobody steals it, so the owner takes it back itself — it never
	// works around its own published tasks — and publishes 7..10 in the
	// same operation.
	if p, _, ok := q.PopLocal(); !ok || p != 3 {
		t.Fatalf("owner popped %d (ok=%v), want 3 (its own published top)", p, ok)
	}
	if q.Top() != 7 || q.TopLocal() != 4 {
		t.Fatalf("published top = %d, owner's top = %d, want 7 and 4 (4..6 wait in its run)", q.Top(), q.TopLocal())
	}
	got = q.Steal(nil)
	if len(got) != 4 || got[0].P != 7 || got[3].P != 10 {
		t.Fatalf("second steal = %v, want [7 8 9 10]", got)
	}
	// A push refills the released buffer with the heap's best four — the
	// new task 0 and 11..13. The owner takes them back merged into its
	// run (4..6), so everything still comes out in priority order.
	q.PushLocal(0, 0)
	var order []uint64
	for {
		p, _, ok := q.PopLocal()
		if !ok {
			break
		}
		order = append(order, p)
	}
	want := []uint64{0, 4, 5, 6, 11, 12, 13, 14}
	if !slices.Equal(order, want) {
		t.Fatalf("owner drained %v, want %v", order, want)
	}
	if q.Top() != pq.InfPriority || q.TopLocal() != pq.InfPriority {
		t.Fatal("drained queue advertises a top")
	}
}

// TestHeapQueueBatchPublishesWhatItTook pins the batch path: the owner's
// best k come out merged from heap, run and its own published batch, and
// the refill offers a thief max(stealSize, k) tasks.
func TestHeapQueueBatchPublishesWhatItTook(t *testing.T) {
	q := newHeapQueue[int](4)
	ps, vs := make([]uint64, 40), make([]int, 40)
	for i := range ps {
		ps[i], vs[i] = uint64(i+1), i+1
	}
	q.PushLocalBatch(ps, vs) // publishes 1..4
	if q.Top() != 1 {
		t.Fatalf("Top = %d, want 1", q.Top())
	}
	got := q.PopLocalBatch(8, nil) // 1..4 taken back, merged with 5..8
	if len(got) != 8 || !slices.IsSortedFunc(got, func(a, b pq.Item[int]) int { return cmp.Compare(a.P, b.P) }) || got[0].P != 1 || got[7].P != 8 {
		t.Fatalf("batch = %v, want 1..8", got)
	}
	if stolen := q.Steal(nil); len(stolen) != 8 || stolen[0].P != 9 || stolen[7].P != 16 {
		t.Fatalf("steal after a batch of 8 = %v, want 9..16", stolen)
	}
	// A short pop keeps the surplus of the batch it took back in the run,
	// not in the heap, and still comes out in order.
	q.PushLocal(100, 100) // refills: 17..20
	if got = q.PopLocalBatch(2, got[:0]); len(got) != 2 || got[0].P != 17 || got[1].P != 18 {
		t.Fatalf("short batch = %v, want [17 18]", got)
	}
	if q.TopLocal() != 19 || q.Top() != 21 {
		t.Fatalf("owner's top = %d, published top = %d, want 19 and 21", q.TopLocal(), q.Top())
	}
}

// TestSingleWorkerPublishesNothing: a one-worker SMQ has no thief, so its
// queue must never pay for a steal buffer and drains in exact order.
func TestSingleWorkerPublishesNothing(t *testing.T) {
	s := NewStealingMQ[int](Config{Workers: 1})
	w := s.Worker(0)
	for i := 100; i > 0; i-- {
		w.Push(uint64(i), i)
	}
	q := s.queues[0].(*heapQueue[int])
	if q.Top() != pq.InfPriority {
		t.Fatalf("one-worker queue published a batch (top %d)", q.Top())
	}
	for i := 1; i <= 100; i++ {
		if p, _, ok := w.Pop(); !ok || p != uint64(i) {
			t.Fatalf("pop %d = %d (ok=%v): a one-worker SMQ is an exact queue", i, p, ok)
		}
	}
}

func TestHeapQueueOwnerReclaimsBuffer(t *testing.T) {
	q := newHeapQueue[int](4)
	for i := 1; i <= 4; i++ {
		q.PushLocal(uint64(i), i)
	}
	// The first push publishes task 1 into the buffer (the heap held
	// only that task at fill time); 2..4 stay in the heap. The owner
	// pops the heap first and must then reclaim the buffered task — no
	// task may strand.
	got := map[uint64]bool{}
	for {
		p, _, ok := q.PopLocal()
		if !ok {
			break
		}
		if got[p] {
			t.Fatalf("task %d reclaimed twice", p)
		}
		got[p] = true
	}
	if len(got) != 4 {
		t.Fatalf("owner reclaimed %d tasks, want 4 (buffer stranded)", len(got))
	}
	for i := uint64(1); i <= 4; i++ {
		if !got[i] {
			t.Errorf("task %d lost", i)
		}
	}
}

func TestHeapQueueSingleClaimantPerEpoch(t *testing.T) {
	// Hammer one queue with concurrent thieves while its owner works on
	// it; each published epoch must be claimed at most once (no task
	// duplication, none lost).
	q := newHeapQueue[int](4)
	const rounds = 3000
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[int]int{}
	stop := make(chan struct{})
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, it := range q.Steal(nil) {
					mu.Lock()
					seen[it.V]++
					mu.Unlock()
				}
			}
		}()
	}
	// Owner: keep pushing tasks, and popping some, one at a time and in
	// batches, so that its own claims race the thieves'; refills happen
	// inside all three operations.
	var batch []pq.Item[int]
	for i := 0; i < rounds; i++ {
		q.PushLocal(uint64(i), i)
		switch {
		case i%3 == 2:
			if _, v, ok := q.PopLocal(); ok {
				batch = append(batch, pq.Item[int]{V: v})
			}
		case i%16 == 15:
			batch = q.PopLocalBatch(3, batch)
		}
		mu.Lock()
		for _, it := range batch {
			seen[it.V]++
		}
		mu.Unlock()
		batch = batch[:0]
	}
	// Drain the rest as the owner.
	for {
		_, v, ok := q.PopLocal()
		if !ok {
			break
		}
		mu.Lock()
		seen[v]++
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	// One final owner drain in case thieves stopped mid-claim cycle.
	for {
		_, v, ok := q.PopLocal()
		if !ok {
			break
		}
		seen[v]++
	}
	if len(seen) != rounds {
		t.Fatalf("saw %d distinct tasks, want %d", len(seen), rounds)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d extracted %d times", v, c)
		}
	}
}

func TestStatsRemoteCounting(t *testing.T) {
	s := NewStealingMQ[int](Config{Workers: 4, NUMANodes: 2, NUMAWeightK: 8, StealProb: 1})
	w := s.Worker(0).(*smqWorker[int])
	for i := 0; i < 100; i++ {
		w.Push(uint64(i), i)
		w.Pop()
	}
	st := s.Stats()
	if st.Pops != 100 {
		t.Fatalf("Pops = %d", st.Pops)
	}
	// Remote is whatever worker 0's sampler saw, and each victim probe
	// draws once and ends as one steal or one failed steal.
	if st.Remote != w.smp.Remote || st.Remote == 0 || st.Remote > st.Steals+st.StealFails {
		t.Fatalf("Remote = %d, sampler %d, probes %d", st.Remote, w.smp.Remote, st.Steals+st.StealFails)
	}
}

// TestHugeNUMAWeightDoesNotHang: with one queue per virtual node, a
// weight K so large that the own-node probability rounds to 1 made the
// victim draw, which must avoid the worker's own queue, spin forever.
func TestHugeNUMAWeightDoesNotHang(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := NewStealingMQ[int](Config{Workers: 2, NUMANodes: 2, NUMAWeightK: 1e17, StealProb: 1}).Worker(0)
		w.Push(1, 1)
		w.Pop()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Push and Pop with NUMAWeightK = 1e17 still running after 5 s")
	}
}

// TestSingleWorkerEmptyPopSkipsStealFallback: with one worker there is
// no victim, so an empty Pop must not spin through the 2·Workers victim
// probes of the fallback loop (every stealFrom against our own id is a
// no-op). The failure must be reported immediately with no steal
// attempts counted.
func TestSingleWorkerEmptyPopSkipsStealFallback(t *testing.T) {
	for name, mk := range map[string]func() *SMQ[int]{
		"heap":     func() *SMQ[int] { return NewStealingMQ[int](Config{Workers: 1, StealProb: 1}) },
		"skiplist": func() *SMQ[int] { return NewStealingMQSkipList[int](Config{Workers: 1, StealProb: 1}) },
	} {
		s := mk()
		w := s.Worker(0)
		w.Push(3, 30)
		if _, v, ok := w.Pop(); !ok || v != 30 {
			t.Fatalf("%s: lost the single worker's own task", name)
		}
		for i := 0; i < 50; i++ {
			if _, _, ok := w.Pop(); ok {
				t.Fatalf("%s: popped from an empty scheduler", name)
			}
		}
		st := s.Stats()
		if st.EmptyPops != 50 {
			t.Fatalf("%s: EmptyPops = %d, want 50", name, st.EmptyPops)
		}
		if st.Steals != 0 || st.StealFails != 0 || st.StolenTask != 0 {
			t.Fatalf("%s: single-worker pops attempted steals: %+v", name, st)
		}
	}
}
