package emq

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/pq"
	"repro/internal/sched"
)

func TestDefaults(t *testing.T) {
	c := Config{Workers: 3}
	c.normalize()
	if c.C != 2 || c.Stickiness != 16 || c.InsertBuffer != 16 || c.DeleteBuffer != 16 {
		t.Fatalf("bad defaults: %+v", c)
	}
	if c.HeapArity != 8 || c.Seed != 1 || c.NUMAWeightK != 8 {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestWorkersRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Workers=0")
		}
	}()
	New[int](Config{})
}

func TestWorkerIndexBounds(t *testing.T) {
	s := New[int](Config{Workers: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range worker")
		}
	}()
	s.Worker(2)
}

// TestSingleWorkerDrain checks that one worker gets back everything it
// pushed, including tasks still sitting in its insertion buffer when the
// pops begin.
func TestSingleWorkerDrain(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 1, C: 1, Stickiness: 1, InsertBuffer: 1, DeleteBuffer: 1},
		{Workers: 1, Stickiness: 3, InsertBuffer: 7, DeleteBuffer: 5},
	} {
		s := New[int](cfg)
		w := s.Worker(0)
		const n = 1000
		for i := 0; i < n; i++ {
			w.Push(uint64(i%97), i)
		}
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			_, v, ok := w.Pop()
			if !ok {
				t.Fatalf("cfg %+v: pop %d failed with tasks outstanding", cfg, i)
			}
			if seen[v] {
				t.Fatalf("cfg %+v: duplicate value %d", cfg, v)
			}
			seen[v] = true
		}
		if _, _, ok := w.Pop(); ok {
			t.Fatalf("cfg %+v: pop succeeded on drained scheduler", cfg)
		}
		st := s.Stats()
		if st.Pushes != n || st.Pops != n || st.EmptyPops != 1 {
			t.Fatalf("cfg %+v: stats %+v", cfg, st)
		}
	}
}

// TestPopPrefersLowPriorities checks the relaxed ordering is still
// broadly priority-driven: with a single worker and tiny buffers, the
// first pop after pushing a spread of priorities must come from the low
// end, not the high end.
func TestPopPrefersLowPriorities(t *testing.T) {
	s := New[int](Config{Workers: 1, C: 1, Stickiness: 1, InsertBuffer: 1, DeleteBuffer: 1})
	w := s.Worker(0)
	for i := 1000; i > 0; i-- {
		w.Push(uint64(i), i)
	}
	p, _, ok := w.Pop()
	if !ok || p != 1 {
		t.Fatalf("single-queue EMQ must pop the exact minimum, got %d ok=%v", p, ok)
	}
}

// TestConcurrentDrain runs the Pending protocol across workers under
// load (the -race build exercises the locking).
func TestConcurrentDrain(t *testing.T) {
	const workers = 4
	const perWorker = 5000
	s := New[uint32](Config{Workers: workers, Stickiness: 8, InsertBuffer: 8, DeleteBuffer: 8})
	var pending sched.Pending
	pending.Inc(workers * perWorker)

	var popped [workers][]uint32
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < perWorker; i++ {
				v := uint32(wid*perWorker + i)
				w.Push(uint64(v%1021), v)
			}
			var b sched.Backoff
			for !pending.Done() {
				_, v, ok := w.Pop()
				if !ok {
					b.Wait()
					continue
				}
				b.Reset()
				popped[wid] = append(popped[wid], v)
				pending.Dec()
			}
		}(wid)
	}
	wg.Wait()

	seen := make([]bool, workers*perWorker)
	total := 0
	for wid := range popped {
		for _, v := range popped[wid] {
			if seen[v] {
				t.Fatalf("duplicate task %d", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != workers*perWorker {
		t.Fatalf("drained %d of %d tasks", total, workers*perWorker)
	}
	st := s.Stats()
	if st.Pushes != workers*perWorker || st.Pops != workers*perWorker {
		t.Fatalf("stats disagree with drain: %+v", st)
	}
}

// TestNUMASamplingCountsRemote checks the weighted sampler is actually
// wired in: with two virtual nodes some sticky resamples must land
// off-node, and with K=1 remote accesses must be more frequent than with
// a large K.
func TestNUMASamplingCountsRemote(t *testing.T) {
	remoteFrac := func(k float64) float64 {
		s := New[int](Config{Workers: 4, Stickiness: 1, InsertBuffer: 1,
			DeleteBuffer: 1, NUMANodes: 2, NUMAWeightK: k, Seed: 7})
		var wg sync.WaitGroup
		for wid := 0; wid < 4; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				w := s.Worker(wid)
				for i := 0; i < 3000; i++ {
					w.Push(uint64(i), i)
				}
				for i := 0; i < 3000; i++ {
					w.Pop()
				}
			}(wid)
		}
		wg.Wait()
		st := s.Stats()
		return float64(st.Remote) / float64(st.Pushes+st.Pops)
	}
	low, high := remoteFrac(256), remoteFrac(1)
	if high == 0 {
		t.Fatal("no remote accesses recorded with uniform sampling")
	}
	if low >= high {
		t.Fatalf("K=256 remote fraction %.3f should be below K=1's %.3f", low, high)
	}
}

// TestSweepRefillDoesNotBlockOnHeldLock: the sweep's first pass must use
// try-locks, so a deletion-buffer refill that falls back to a sweep
// still finds a task in an unlocked queue while another queue's lock is
// held indefinitely.
func TestSweepRefillDoesNotBlockOnHeldLock(t *testing.T) {
	s := New[int](Config{Workers: 1, C: 4, DeleteBuffer: 4})
	// Plant a task directly in queue 2, keeping its cached top coherent.
	s.queues[2].mu.Lock()
	s.queues[2].pushAll([]pq.Item[int]{{P: 5, V: 50}})
	s.queues[2].mu.Unlock()
	// Hold queue 0's lock for the whole test.
	s.queues[0].mu.Lock()
	defer s.queues[0].mu.Unlock()

	p, v, ok := s.Worker(0).Pop()
	if !ok || p != 5 || v != 50 {
		t.Fatalf("Pop = (%d, %d, %v), want (5, 50, true)", p, v, ok)
	}
}

// drainOrder fills a one-worker scheduler with a fixed task set and
// returns the priorities in the order pop yields them.
func drainOrder(t *testing.T, cfg Config, pop func(w sched.Worker[int], dst []sched.Task[int]) int) []uint64 {
	t.Helper()
	const total = 2000
	cfg.Workers, cfg.C, cfg.Seed = 1, 4, 42
	w := New[int](cfg).Worker(0)
	for i := 0; i < total; i++ {
		w.Push(uint64(i*7919%1009), i)
	}
	var order []uint64
	dst := make([]sched.Task[int], 8)
	for {
		n := pop(w, dst)
		if n == 0 {
			break
		}
		for _, it := range dst[:n] {
			order = append(order, it.P)
		}
	}
	if len(order) != total {
		t.Fatalf("drained %d of %d tasks", len(order), total)
	}
	return order
}

// TestDeleteBufferIsTheUnitOfExtraction pins that DeleteBuffer governs
// PopN exactly as it governs Pop: the knob changes what a PopN-driven
// drain pops, a PopN of one pops what Pop pops, and no lock acquisition
// extracts more than DeleteBuffer tasks however large dst is.
func TestDeleteBufferIsTheUnitOfExtraction(t *testing.T) {
	popN1 := func(w sched.Worker[int], dst []sched.Task[int]) int { return w.PopN(dst[:1]) }
	scalar := func(w sched.Worker[int], dst []sched.Task[int]) int {
		p, v, ok := w.Pop()
		if !ok {
			return 0
		}
		dst[0] = sched.Task[int]{P: p, V: v}
		return 1
	}
	orders := map[int][]uint64{}
	for _, buf := range []int{2, 32} {
		cfg := Config{DeleteBuffer: buf}
		orders[buf] = drainOrder(t, cfg, popN1)
		if !slices.Equal(orders[buf], drainOrder(t, cfg, scalar)) {
			t.Errorf("DeleteBuffer=%d: PopN(dst[:1]) and Pop drain in different orders", buf)
		}
	}
	if slices.Equal(orders[2], orders[32]) {
		t.Error("DeleteBuffer 2 and 32 drain in the same order through PopN: the knob is not reaching it")
	}

	// Two queues, so the sticky pair is always both of them: queue 0
	// holds 0, 10, 20, …, queue 1 holds 5, 15, 25, …. A delete that takes
	// at most two tasks per acquisition alternates between them pair by
	// pair; one that takes a caller-sized run from the winner does not.
	s := New[int](Config{Workers: 1, C: 2, DeleteBuffer: 2})
	var lists [2][]uint64
	for i := 0; i < 40; i++ {
		for qi := range lists {
			p := uint64(10*i + 5*qi)
			s.queues[qi].pushAll([]pq.Item[int]{{P: p}})
			lists[qi] = append(lists[qi], p)
		}
	}
	var want, got []uint64
	for len(lists[0])+len(lists[1]) > 0 {
		qi := 0
		if len(lists[0]) == 0 || len(lists[1]) > 0 && lists[1][0] < lists[0][0] {
			qi = 1
		}
		k := min(2, len(lists[qi]))
		want = append(want, lists[qi][:k]...)
		lists[qi] = lists[qi][k:]
	}
	dst := make([]sched.Task[int], 8)
	for n := s.Worker(0).PopN(dst); n > 0; n = s.Worker(0).PopN(dst) {
		for _, it := range dst[:n] {
			got = append(got, it.P)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("PopN(dst[:8]) under DeleteBuffer=2 popped\n %v\nwant two tasks per two-choice winner:\n %v", got, want)
	}
}
