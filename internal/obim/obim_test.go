package obim

import (
	"sync"
	"testing"

	"repro/internal/sched"
)

func TestDefaults(t *testing.T) {
	c := Config{Workers: 1}
	c.normalize()
	if c.Delta != 10 || c.ChunkSize != 64 {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Workers=0 did not panic")
		}
	}()
	New[int](Config{})
}

func TestSingleThreadedDrain(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		s := New[int](Config{Workers: 1, Delta: 3, ChunkSize: 8, Adaptive: adaptive})
		w := s.Worker(0)
		const n = 3000
		for i := 0; i < n; i++ {
			w.Push(uint64((i*13)%777), i)
		}
		seen := make([]bool, n)
		count := 0
		for {
			_, v, ok := w.Pop()
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("adaptive=%v: value %d popped twice", adaptive, v)
			}
			seen[v] = true
			count++
		}
		if count != n {
			t.Fatalf("adaptive=%v: popped %d, want %d", adaptive, count, n)
		}
	}
}

func TestBucketOrderingRespected(t *testing.T) {
	// With Delta=4 (buckets of 16) and a single worker, pops must come
	// bucket-by-bucket in ascending order once pushes stop.
	s := New[int](Config{Workers: 1, Delta: 4, ChunkSize: 4})
	w := s.Worker(0)
	const n = 600
	for i := n - 1; i >= 0; i-- {
		w.Push(uint64(i), i)
	}
	prevBucket := uint64(0)
	for i := 0; i < n; i++ {
		p, _, ok := w.Pop()
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		bucket := p >> 4
		if bucket < prevBucket {
			t.Fatalf("bucket inversion: %d after %d", bucket, prevBucket)
		}
		prevBucket = bucket
	}
}

// TestBagServesChunksOldestFirst pins the order inside one bucket: a bag
// is a FIFO of chunks, so label-correcting work that lands in one bucket
// is served breadth-first. (Newest-first made SSSP on a power-law graph
// run ten times Dijkstra's tasks.) The order inside a chunk is free.
func TestBagServesChunksOldestFirst(t *testing.T) {
	const chunkSize, chunks = 8, 3
	s := New[int](Config{Workers: 1, Delta: 32, ChunkSize: chunkSize})
	w := s.Worker(0)
	for i := 0; i < chunks*chunkSize; i++ {
		w.Push(uint64(i), i) // value i is in the (i/chunkSize)-th chunk published
	}
	if got := len(s.bags); got != 1 {
		t.Fatalf("%d bags, want everything in one", got)
	}
	for i := 0; i < chunks*chunkSize; i++ {
		_, v, ok := w.Pop()
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		if v/chunkSize != i/chunkSize {
			t.Fatalf("pop %d returned a task of chunk %d, want chunk %d (oldest first)", i, v/chunkSize, i/chunkSize)
		}
	}
}

func TestSmallDeltaExactOrder(t *testing.T) {
	// Delta such that each priority is its own bucket and chunk size 1:
	// OBIM degenerates to strict priority order for one worker. Delta=0
	// normalizes to default, so use priorities spaced 2 apart with
	// Delta=1.
	s := New[int](Config{Workers: 1, Delta: 1, ChunkSize: 1})
	w := s.Worker(0)
	for i := 50; i >= 0; i-- {
		w.Push(uint64(i*2), i)
	}
	for i := 0; i <= 50; i++ {
		p, _, ok := w.Pop()
		if !ok || p != uint64(i*2) {
			t.Fatalf("pop %d = (%d,%v), want %d", i, p, ok, i*2)
		}
	}
}

func TestNoLostTasksConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"obim", Config{Workers: 4, Delta: 6, ChunkSize: 16}},
		{"pmod", Config{Workers: 4, Delta: 6, ChunkSize: 16, Adaptive: true, AdaptInterval: 256}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New[int](tc.cfg)
			const perWorker = 4000
			total := 4 * perWorker
			var pending sched.Pending
			pending.Inc(int64(total))
			seen := make([]int32, total)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for wid := 0; wid < 4; wid++ {
				wg.Add(1)
				go func(wid int) {
					defer wg.Done()
					w := s.Worker(wid)
					for i := 0; i < perWorker; i++ {
						v := wid*perWorker + i
						w.Push(uint64(v%1021), v)
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
						mu.Unlock()
						pending.Dec()
					}
				}(wid)
			}
			wg.Wait()
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("task %d seen %d times", v, c)
				}
			}
			st := s.Stats()
			if st.Pushes != uint64(total) || st.Pops != uint64(total) {
				t.Fatalf("stats %+v, want %d pushes/pops", st, total)
			}
		})
	}
}

func TestPushChunkFlushOnIdle(t *testing.T) {
	// Fewer tasks than the chunk size must still be poppable.
	s := New[int](Config{Workers: 1, Delta: 4, ChunkSize: 1024})
	w := s.Worker(0)
	w.Push(7, 70)
	w.Push(9, 90)
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		_, v, ok := w.Pop()
		if !ok {
			t.Fatal("Pop failed with tasks buffered in push chunk")
		}
		got[v] = true
	}
	if !got[70] || !got[90] {
		t.Fatalf("wrong values: %v", got)
	}
}

// TestRecycledChunksHoldNoPayload checks the other half of recycling: a
// drained chunk goes to the worker's free list with every slot zeroed,
// or the list would keep up to freeChunks*ChunkSize popped payloads
// reachable for as long as the scheduler lives.
func TestRecycledChunksHoldNoPayload(t *testing.T) {
	s := New[*[64]byte](Config{Workers: 1, Delta: 4, ChunkSize: 8})
	w := &s.workers[0]
	const n = 400
	for i := 0; i < n; i++ {
		w.Push(uint64(i), &[64]byte{byte(i)})
	}
	for i := 0; i < n; i++ {
		if _, _, ok := w.Pop(); !ok {
			t.Fatalf("drained early at %d", i)
		}
	}
	if w.nfree == 0 {
		t.Fatal("nothing was recycled")
	}
	listed := 0
	for c := w.free; c != nil; c = c.next {
		listed++
		if len(c.items) != 0 {
			t.Fatalf("free chunk %d has length %d, want 0", listed, len(c.items))
		}
		for i, it := range c.items[:cap(c.items)] {
			if it.V != nil || it.P != 0 {
				t.Fatalf("free chunk %d slot %d still holds (%d, %p)", listed, i, it.P, it.V)
			}
		}
	}
	if listed != w.nfree || listed > freeChunks {
		t.Fatalf("free list has %d chunks, nfree = %d, bound %d", listed, w.nfree, freeChunks)
	}
}

func TestPMODAdaptsDeltaUp(t *testing.T) {
	// Scatter priorities so every bag holds a single task: PMOD must
	// merge (increase Delta).
	s := New[int](Config{Workers: 1, Delta: 1, ChunkSize: 8, Adaptive: true, AdaptInterval: 64})
	w := s.Worker(0)
	d0 := s.delta.Load()
	for round := 0; round < 40; round++ {
		for i := 0; i < 64; i++ {
			w.Push(uint64(i*1024), i)
		}
		for i := 0; i < 64; i++ {
			w.Pop()
		}
	}
	if s.delta.Load() <= d0 {
		t.Fatalf("PMOD never merged: delta %d -> %d", d0, s.delta.Load())
	}
}

func TestPMODAdaptsDeltaDown(t *testing.T) {
	// All priorities in one giant bag: PMOD must split (decrease Delta).
	s := New[int](Config{Workers: 1, Delta: 30, ChunkSize: 2, Adaptive: true, AdaptInterval: 64})
	w := s.Worker(0)
	d0 := s.delta.Load()
	for round := 0; round < 40; round++ {
		for i := 0; i < 512; i++ {
			w.Push(uint64(i), i)
		}
		for i := 0; i < 512; i++ {
			w.Pop()
		}
	}
	if s.delta.Load() >= d0 {
		t.Fatalf("PMOD never split: delta %d -> %d", d0, s.delta.Load())
	}
}

func TestBagPruningBoundsMap(t *testing.T) {
	// Stream through many distinct priority classes, draining each
	// before moving on: without pruning the bag map grows without bound.
	s := New[int](Config{Workers: 1, Delta: 1, ChunkSize: 4, PruneBags: 16})
	w := s.Worker(0)
	const classes = 2000
	for cl := 0; cl < classes; cl++ {
		for i := 0; i < 3; i++ {
			w.Push(uint64(cl)<<8, cl*10+i)
		}
		for i := 0; i < 3; i++ {
			if _, _, ok := w.Pop(); !ok {
				t.Fatalf("class %d: lost task %d", cl, i)
			}
		}
	}
	if got := len(s.bags); got > 64 {
		t.Fatalf("bag map grew to %d despite pruning (threshold 16)", got)
	}
	if s.pruned.Load() == 0 {
		t.Fatal("pruner never fired")
	}
}

func TestBagPruningNoLostTasksConcurrent(t *testing.T) {
	// Aggressive pruning while 4 workers push/pop across a wide, moving
	// priority range: the retire protocol must never strand a chunk.
	s := New[int](Config{Workers: 4, Delta: 1, ChunkSize: 2, PruneBags: 8})
	const perWorker = 6000
	total := 4 * perWorker
	var pending sched.Pending
	pending.Inc(int64(total))
	seen := make([]int32, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for wid := 0; wid < 4; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < perWorker; i++ {
				v := wid*perWorker + i
				// Wide spread of priorities to force many bags.
				w.Push(uint64(v)<<4, v)
				if i%3 == 0 {
					if _, got, ok := w.Pop(); ok {
						mu.Lock()
						seen[got]++
						mu.Unlock()
						pending.Dec()
					}
				}
			}
			var b sched.Backoff
			for pending.Load() != 0 {
				_, got, ok := w.Pop()
				if !ok {
					b.Wait()
					continue
				}
				b.Reset()
				mu.Lock()
				seen[got]++
				mu.Unlock()
				pending.Dec()
			}
		}(wid)
	}
	wg.Wait()
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d seen %d times", v, c)
		}
	}
}

func TestHintRecoveryAfterRace(t *testing.T) {
	// Regression guard for the raiseHint race: tasks pushed to a low
	// bucket right as a scan raises the hint must still be found via the
	// full-scan fallback.
	s := New[int](Config{Workers: 2, Delta: 2, ChunkSize: 2})
	w0, w1 := s.Worker(0), s.Worker(1)
	for i := 0; i < 100; i++ {
		w0.Push(uint64(1000+i), i)
	}
	// Drain a bit to raise the hint.
	for i := 0; i < 50; i++ {
		w0.Pop()
	}
	// Push low-priority-bucket tasks from the other worker.
	for i := 0; i < 10; i++ {
		w1.Push(uint64(i), 1000+i)
	}
	count := 0
	for {
		_, _, ok0 := w0.Pop()
		_, _, ok1 := w1.Pop()
		if ok0 {
			count++
		}
		if ok1 {
			count++
		}
		if !ok0 && !ok1 {
			break
		}
	}
	if count != 60 {
		t.Fatalf("drained %d, want 60", count)
	}
}

// TestOpenChunksServeInBucketOrder: a lone worker whose pushes cycle
// through many buckets, lowest last, keeps one open chunk per bucket and
// takes them back lowest key first, so its pops come out in bucket order.
func TestOpenChunksServeInBucketOrder(t *testing.T) {
	const buckets, rounds = 24, 10 // rounds < ChunkSize: nothing is published
	s := New[int](Config{Workers: 1, Delta: 1, ChunkSize: 64})
	w := &s.workers[0]
	for r := 0; r < rounds; r++ {
		for b := buckets - 1; b >= 0; b-- {
			w.Push(uint64(b)<<1|uint64(r&1), b)
		}
	}
	if len(w.open) != buckets {
		t.Fatalf("%d open chunks, want one per bucket (%d)", len(w.open), buckets)
	}
	prev := uint64(0)
	for i := 0; i < buckets*rounds; i++ {
		p, _, ok := w.Pop()
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		if p>>1 < prev {
			t.Fatalf("pop %d: bucket %d after bucket %d", i, p>>1, prev)
		}
		prev = p >> 1
	}
	if _, _, ok := w.Pop(); ok {
		t.Fatal("Pop returned a task after the drain")
	}
}

// TestOpenChunksDrainedByOwner: open chunks belong to their owner, whose
// Pop reports empty only once it holds none.
func TestOpenChunksDrainedByOwner(t *testing.T) {
	const n = 500
	s := New[int](Config{Workers: 2, Delta: 2, ChunkSize: 64})
	owner, other := &s.workers[0], &s.workers[1]
	for i := 0; i < n; i++ {
		owner.Push(uint64(i*37%1000), i) // 250 buckets, a few tasks each
	}
	if _, _, ok := other.Pop(); ok {
		t.Fatal("another worker popped a task from an open chunk")
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		_, v, ok := owner.Pop()
		if !ok {
			t.Fatalf("owner's Pop reported empty after %d of %d tasks", i, n)
		}
		if seen[v] {
			t.Fatalf("task %d popped twice", v)
		}
		seen[v] = true
	}
	if _, _, ok := owner.Pop(); ok {
		t.Fatal("Pop returned a task after the drain")
	}
	if len(owner.open) != 0 {
		t.Fatalf("an empty Pop left %d open chunks", len(owner.open))
	}
	for key, lb := range owner.bags {
		if lb.open != nil {
			t.Fatalf("an empty Pop left key %d's chunk open", key)
		}
	}
}

// TestOpenChunkOutlivesRetiredBag: the pruner retires bags that hold no
// published chunk, which includes a bag whose only tasks sit in an open
// chunk. Its owner must still be served them, and a chunk that fills
// afterwards is published to a live bag.
func TestOpenChunkOutlivesRetiredBag(t *testing.T) {
	const chunkSize = 8
	s := New[int](Config{Workers: 1, Delta: 1, ChunkSize: chunkSize, PruneBags: 2})
	w := &s.workers[0]
	w.Push(0, 0) // key 0: one task, open
	for i := 1; i <= 4; i++ {
		w.Push(uint64(i)<<4, i) // new keys, each a new bag: the pruner runs
	}
	lb := w.bags[0]
	if lb == nil || lb.open == nil {
		t.Fatal("key 0 has no open chunk")
	}
	if !lb.b.retired.Load() || s.pruned.Load() == 0 {
		t.Fatalf("key 0's bag was not retired (pruned %d)", s.pruned.Load())
	}
	// Fill key 0's chunk: its publication must find a live bag.
	for i := 1; i < chunkSize; i++ {
		w.Push(1, 100+i)
	}
	if lb.open != nil || lb.b.retired.Load() {
		t.Fatalf("a full chunk was not published to a live bag (open %p, retired %v)", lb.open, lb.b.retired.Load())
	}
	w.Push(0, 200) // and key 0 opens again
	got := map[int]bool{}
	for {
		_, v, ok := w.Pop()
		if !ok {
			break
		}
		if got[v] {
			t.Fatalf("task %d popped twice", v)
		}
		got[v] = true
	}
	if want := 4 + chunkSize + 1; len(got) != want {
		t.Fatalf("popped %d tasks, want %d", len(got), want)
	}
	if !got[0] || !got[200] {
		t.Fatalf("lost a task of the retired key 0: %v", got)
	}
}

// TestOpenChunksNoLostTasksPruning: at Δ 1 every few pushes open a chunk,
// four workers take their own back while others publish full ones, and
// the pruner retires bags under all of them — race it with -race.
func TestOpenChunksNoLostTasksPruning(t *testing.T) {
	const workers, perWorker = 4, 5000
	s := New[int](Config{Workers: workers, Delta: 1, ChunkSize: 8, PruneBags: 8})
	total := workers * perWorker
	var pending sched.Pending
	pending.Inc(int64(total))
	seen := make([]int32, total)
	var mu sync.Mutex
	record := func(v int) {
		mu.Lock()
		seen[v]++
		mu.Unlock()
		pending.Dec()
	}
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < perWorker; i++ {
				v := wid*perWorker + i
				// 64 buckets, visited in a stride that changes bucket on
				// every push, drifting upward.
				w.Push(uint64(i/16+(i*7)%64)<<1, v)
				if i%4 == 0 {
					if _, got, ok := w.Pop(); ok {
						record(got)
					}
				}
			}
			var b sched.Backoff
			for pending.Load() != 0 {
				_, got, ok := w.Pop()
				if !ok {
					b.Wait()
					continue
				}
				b.Reset()
				record(got)
			}
		}(wid)
	}
	wg.Wait()
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d seen %d times", v, c)
		}
	}
	if s.pruned.Load() == 0 {
		t.Fatal("pruner never fired")
	}
}

// TestRefillServesLowerCandidate: a refill serves the lower of the lowest
// published chunk and the worker's own lowest open chunk, the published
// one on a tie.
func TestRefillServesLowerCandidate(t *testing.T) {
	const chunkSize = 4
	s := New[int](Config{Workers: 2, Delta: 4, ChunkSize: chunkSize})
	w0, w1 := &s.workers[0], &s.workers[1]
	w0.Push(16, -1) // w0's open chunk at key 16
	for i := 0; i < chunkSize; i++ {
		w1.Push(17, i) // a full chunk at key 16, published
	}
	for i := 0; i < chunkSize; i++ {
		if _, v, _ := w0.Pop(); v < 0 {
			t.Fatalf("pop %d: the own open chunk was served before the published one of the same key", i)
		}
	}
	if _, v, ok := w0.Pop(); !ok || v != -1 {
		t.Fatalf("Pop = (%d, %v), want the own task -1", v, ok)
	}
	w0.Push(0, -2) // open at key 0, below a published chunk at 32
	for i := 0; i < chunkSize; i++ {
		w1.Push(32, 10+i)
	}
	if _, v, ok := w0.Pop(); !ok || v != -2 {
		t.Fatalf("Pop = (%d, %v), want the own task -2 below the published chunk", v, ok)
	}
}

// TestMirrorSweepKeepsOpenChunks: the sweep that bounds the mirror drops
// closed entries only, so a bucket never has two open chunks.
func TestMirrorSweepKeepsOpenChunks(t *testing.T) {
	s := New[int](Config{Workers: 1, Delta: 1, ChunkSize: 2, PruneBags: 2})
	w := &s.workers[0]
	w.Push(0, 0) // key 0 stays open
	for k := 1; k <= 10; k++ {
		w.Push(uint64(k)<<4, k) // open and publish: closed entries pile up
		w.Push(uint64(k)<<4, k)
	}
	w.Push(1000, 0) // a new key: the mirror is swept
	w.Push(1, 0)    // key 0 again: its chunk fills and is published
	if n := len(w.open); n != 1 {
		t.Fatalf("%d open chunks, want 1 (key 1000's): the sweep dropped key 0's open entry", n)
	}
}
