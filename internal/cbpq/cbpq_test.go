package cbpq

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// Op codes of the byte streams runOps interprets. An op byte's low two
// bits pick the operation; for the batch ops the next four bits give the
// batch length minus one. A Push or PushN is followed by its keys, each
// eight little-endian bytes, so keys span the full uint64 range.
const (
	opPush = iota
	opPop
	opPushN
	opPopN
)

// fuzzCaps are the chunk capacities a fuzz input's first byte selects
// from: the smallest (a split every few inserts and a segment cut every
// few dozen), a small one, and the default.
var fuzzCaps = [...]int{4, 8, DefaultChunkCap}

// runOps drives q's worker 0 through the op stream ops (stopping at the
// first op whose keys are cut short) against a sorted-multiset oracle:
// every pop must return the oracle's exact minimum, PopN(k) exactly the
// min(k, count) smallest in ascending order, and every payload —
// a push's sequence number — must come out exactly once with the
// priority it went in with. After each structural step (a new root) the
// spine's shape is checked; at the end the queue must drain exactly to
// the oracle and the counters must balance.
func runOps(t *testing.T, q *Queue[int], ops []byte) {
	t.Helper()
	w := q.Worker(0)
	var oracle []uint64 // ascending multiset of the queued priorities
	var prio []uint64   // prio[v] is the priority payload v was pushed with
	var popped []bool
	push := func(p uint64) {
		i, _ := slices.BinarySearch(oracle, p)
		oracle = slices.Insert(oracle, i, p)
		prio = append(prio, p)
		popped = append(popped, false)
	}
	take := func(op int, p uint64, v int) {
		if len(oracle) == 0 || p != oracle[0] {
			t.Fatalf("op %d: popped %d, oracle minimum %v", op, p, oracle[:min(1, len(oracle))])
		}
		if v < 0 || v >= len(prio) || popped[v] || prio[v] != p {
			t.Fatalf("op %d: payload %d popped at priority %d is not a live push of it", op, v, p)
		}
		popped[v] = true
		oracle = oracle[1:]
	}
	dst := make([]sched.Task[int], 16)
	var ps []uint64
	var vs []int
	last := q.root.Load()
	for op := 0; len(ops) > 0; op++ {
		code, k := ops[0]&3, 1+int(ops[0]>>2)&15
		ops = ops[1:]
		switch code {
		case opPush, opPushN:
			if code == opPush {
				k = 1
			}
			if len(ops) < 8*k {
				ops = nil
				continue
			}
			ps, vs = ps[:0], vs[:0]
			for i := 0; i < k; i++ {
				p := binary.LittleEndian.Uint64(ops[8*i:])
				ps, vs = append(ps, p), append(vs, len(prio))
				push(p)
			}
			ops = ops[8*k:]
			if code == opPush {
				w.Push(ps[0], vs[0])
			} else {
				w.PushN(ps, vs)
			}
		case opPop:
			p, v, ok := w.Pop()
			if ok != (len(oracle) > 0) {
				t.Fatalf("op %d: Pop ok = %v with %d queued", op, ok, len(oracle))
			}
			if ok {
				take(op, p, v)
			}
		case opPopN:
			n := w.PopN(dst[:k])
			if want := min(k, len(oracle)); n != want {
				t.Fatalf("op %d: PopN(%d) = %d with %d queued", op, k, n, len(oracle))
			}
			for _, it := range dst[:n] {
				take(op, it.P, it.V)
			}
		}
		if s := q.root.Load(); s != last {
			checkSpine(t, q)
			last = s
		}
	}
	for len(oracle) > 0 {
		p, v, ok := w.Pop()
		if !ok {
			t.Fatalf("drain: queue empty with %d queued", len(oracle))
		}
		take(-1, p, v)
	}
	if _, _, ok := w.Pop(); ok {
		t.Fatal("drain: queue still non-empty after the oracle drained")
	}
	if st := q.Stats(); st.Pushes != uint64(len(prio)) || st.Pops != uint64(len(prio)) {
		t.Fatalf("stats: pushes=%d pops=%d, want %d each", st.Pushes, st.Pops, len(prio))
	}
}

// exactStream encodes TestSequentialExact's op stream: n ops of a random
// push/pop mix (two pushes per pop on average, never popping an empty
// model) over priorities below 1000, so duplicates are common.
func exactStream(n int) []byte {
	rng := rand.New(rand.NewSource(42))
	var ops []byte
	queued := 0
	for op := 0; op < n; op++ {
		if queued == 0 || rng.Intn(3) != 0 {
			ops = binary.LittleEndian.AppendUint64(append(ops, opPush), uint64(rng.Intn(1000)))
			queued++
		} else {
			ops = append(ops, opPop)
			queued--
		}
	}
	return ops
}

// TestSequentialExact drives a single worker through a random push/pop
// mix against a reference model: every pop must return the exact
// minimum of the live set, for both the default and a tiny chunk
// capacity (the latter forces constant splits, rebuilds and segment
// cuts, and the spine's shape is checked after each).
func TestSequentialExact(t *testing.T) {
	ops := exactStream(20000)
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 1, ChunkCap: 4},
		{Workers: 1, ChunkCap: 8},
		{Workers: 1, DisableElimination: true},
		{Workers: 1, ChunkCap: 8, DisableElimination: true},
	} {
		runOps(t, New[int](cfg), ops)
	}
}

// batchStream encodes n ops drawn from all four operations with
// full-range keys. Batch pushes are drawn twice as often as the others,
// so the queue grows across many segments and PushN's sorted runs meet
// chunk and segment boundaries.
func batchStream(n int) []byte {
	rng := rand.New(rand.NewSource(43))
	var ops []byte
	for op := 0; op < n; op++ {
		code := [...]byte{opPush, opPop, opPushN, opPushN, opPopN}[rng.Intn(5)]
		k := rng.Intn(16)
		ops = append(ops, code|byte(k)<<2)
		switch code {
		case opPush:
			k = 0
		case opPop, opPopN:
			continue
		}
		for ; k >= 0; k-- {
			ops = binary.LittleEndian.AppendUint64(ops, rng.Uint64())
		}
	}
	return ops
}

// FuzzCBPQOrder checks one worker — which is exact — against the
// sorted-multiset oracle of runOps. The first input byte picks the chunk
// capacity from fuzzCaps, the rest is the op stream. Seeded at each
// capacity with the start of TestSequentialExact's stream and of
// TestBatchExact's, so plain `go test` replays both. The seeds stay a
// few hundred bytes: the fuzzer's minimizer is quadratic in the length
// of every new input it keeps, and seeds of kilobytes stall it for its
// whole time budget.
func FuzzCBPQOrder(f *testing.F) {
	for _, ops := range [][]byte{exactStream(64), batchStream(16)} {
		for sel := range fuzzCaps {
			f.Add(append([]byte{byte(sel)}, ops...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runOps(t, New[int](Config{Workers: 1, ChunkCap: fuzzCaps[int(data[0])%len(fuzzCaps)]}), data[1:])
	})
}

// TestBatchExact checks that PushN batches pop back in exact global
// order via PopN, across chunk boundaries and with duplicates. First
// runOps replays a long batch stream with full-range keys against its
// oracle, so PushN's sorted runs meet segment boundaries; then two
// 2500-task batches go in at once. At ChunkCap 4 both cross many segment
// cuts, and the spine's shape is checked after every structural step or
// batch.
func TestBatchExact(t *testing.T) {
	for _, cap_ := range fuzzCaps {
		runOps(t, New[int](Config{Workers: 1, ChunkCap: cap_}), batchStream(1000))
	}
	for _, cap_ := range []int{4, 8} {
		q := New[int](Config{Workers: 1, ChunkCap: cap_})
		w := q.Worker(0)
		rng := rand.New(rand.NewSource(7))
		const n = 5000
		ps := make([]uint64, n)
		vs := make([]int, n)
		for i := range ps {
			ps[i] = uint64(rng.Intn(300))
			vs[i] = i
		}
		w.PushN(ps[:n/2], vs[:n/2])
		checkSpine(t, q)
		w.PushN(ps[n/2:], vs[n/2:])
		checkSpine(t, q)

		var got []uint64
		dst := make([]sched.Task[int], 64)
		for {
			k := w.PopN(dst)
			if k == 0 {
				break
			}
			checkSpine(t, q)
			for _, it := range dst[:k] {
				got = append(got, it.P)
			}
		}
		if len(got) != n {
			t.Fatalf("cap=%d: popped %d of %d", cap_, len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("cap=%d: PopN out of order at %d: %d after %d", cap_, i, got[i], got[i-1])
			}
		}
		st := q.Stats()
		if st.Pushes != n || st.Pops != n {
			t.Fatalf("cap=%d: stats: pushes=%d pops=%d, want %d each", cap_, st.Pushes, st.Pops, n)
		}
	}
}

// TestEmptyAndEdgeBatches covers the empty queue and the nil-batch
// no-ops.
func TestEmptyAndEdgeBatches(t *testing.T) {
	q := New[string](Config{Workers: 2})
	w := q.Worker(0)
	if _, _, ok := w.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	w.PushN(nil, nil)
	if n := w.PopN(nil); n != 0 {
		t.Fatalf("PopN(nil) = %d", n)
	}
	st := q.Stats()
	if st.Pushes != 0 || st.Pops != 0 {
		t.Fatalf("nil batches disturbed stats: %+v", st)
	}
	w.Push(9, "x")
	if p, v, ok := q.Worker(1).Pop(); !ok || p != 9 || v != "x" {
		t.Fatalf("cross-worker pop = (%d,%q,%v)", p, v, ok)
	}
}

// TestConfigValidate pins the constructor contract.
func TestConfigValidate(t *testing.T) {
	if err := (Config{Workers: 1}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, bad := range []Config{{}, {Workers: -1}, {Workers: 1, ChunkCap: 3}, {Workers: 1, ChunkCap: 1 << 17}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate(%+v) = nil, want error", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New[int](Config{})
}

// TestConcurrentExactDrain hammers the queue from several goroutines
// with a tiny chunk capacity, then verifies global conservation and
// that a final single-threaded drain comes out sorted.
func TestConcurrentExactDrain(t *testing.T) {
	workers := 4
	perWorker := 3000
	if testing.Short() {
		perWorker = 600
	}
	q := New[uint64](Config{Workers: workers, ChunkCap: 8})
	var popped sync.Map
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := q.Worker(wi)
			rng := rand.New(rand.NewSource(int64(wi)))
			count := 0
			for i := 0; i < perWorker; i++ {
				id := uint64(wi*perWorker + i)
				w.Push(uint64(rng.Intn(500)), id)
				if i%3 == 0 {
					if _, v, ok := w.Pop(); ok {
						if _, dup := popped.LoadOrStore(v, true); dup {
							t.Errorf("duplicate pop of %d", v)
						}
						count++
					}
				}
			}
			_ = count
		}(wi)
	}
	wg.Wait()

	w := q.Worker(0)
	prev := uint64(0)
	for {
		p, v, ok := w.Pop()
		if !ok {
			break
		}
		if p < prev {
			t.Fatalf("final drain out of order: %d after %d", p, prev)
		}
		prev = p
		if _, dup := popped.LoadOrStore(v, true); dup {
			t.Fatalf("duplicate pop of %d", v)
		}
	}
	total := 0
	popped.Range(func(any, any) bool { total++; return true })
	if total != workers*perWorker {
		t.Fatalf("conservation: popped %d unique of %d pushed", total, workers*perWorker)
	}
	if st := q.Stats(); st.Pushes != st.Pops {
		t.Fatalf("stats conservation: pushes=%d pops=%d", st.Pushes, st.Pops)
	}
}

// loPrefill splits the priority space for the exactness runs: prefilled
// items live in [loPrefill, 2*loPrefill), antagonist inserts strictly
// below them so every one lands in the head's range (the buf path) and
// drives a rebuild while the head still holds unclaimed prefilled slots.
const loPrefill = uint64(1) << 20

// popRec is one timestamped pop observation: the shared clock before
// the call, after the return, and the returned priority.
type popRec struct {
	start, end uint64
	p          uint64
}

// exactnessRun empirically checks that concurrent pops are exact (rank
// displacement 0) while rebuilds and eliminations race them. The queue
// is prefilled with priorities >= loPrefill whose pushes complete
// before the concurrent phase; antagonists then push below-head
// priorities — with elimination these land in the exchange array, so
// racing pops must arbitrate takes against head claims, and overflow
// forces combining rebuilds of a partially drained head — and
// interleave pops of their own (the elimination antagonist: a pop
// racing the publish window of a below-head push), while every pop is
// timestamped with a shared atomic clock. Offline it asserts: no pop
// may return a prefilled priority px while a prefilled item with
// priority < px was continuously present across the pop's whole
// interval — that is, an item popped only by an operation that began
// after this pop returned, or never popped at all. Any such pair is a
// linearizability violation (the pop did not return the minimum), and
// it is exactly the observable signature of a freeze/claim race that
// lets a popper take slot i while smaller frozen-but-unclaimed slots
// are republished — or, with elimination, of a head claim or exchange
// take that overlooked a smaller entry resident in an exchange slot.
// The interval analysis covers exchange-slot residency with no extra
// cases: a published exchange entry is linearized queue content, so an
// eliminating take is just a pop with its own interval, and an entry
// parked across another pop's whole interval is exactly the
// "continuously present" witness the suffix-min scan looks for.
func exactnessRun(t *testing.T, poppers, prefill, antagonists, perAntagonist, chunkCap int, seed int64) {
	t.Helper()
	q := New[uint64](Config{Workers: poppers + antagonists + 1, ChunkCap: chunkCap})
	w0 := q.Worker(0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < prefill; i++ {
		w0.Push(loPrefill+uint64(rng.Intn(1<<20)), uint64(i))
	}

	var clock atomic.Uint64
	recs := make([][]popRec, poppers+antagonists)
	attempts := 2 * (prefill + antagonists*perAntagonist) / poppers
	start := make(chan struct{})
	var wg sync.WaitGroup
	for pi := 0; pi < poppers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			w := q.Worker(1 + pi)
			dst := make([]sched.Task[uint64], 4)
			rs := make([]popRec, 0, attempts)
			<-start
			for a := 0; a < attempts; a++ {
				st := clock.Add(1)
				if a%4 == 3 {
					n := w.PopN(dst)
					en := clock.Add(1)
					for _, it := range dst[:n] {
						rs = append(rs, popRec{st, en, it.P})
					}
					continue
				}
				p, _, ok := w.Pop()
				en := clock.Add(1)
				if ok {
					rs = append(rs, popRec{st, en, p})
				}
			}
			recs[pi] = rs
		}(pi)
	}
	for ai := 0; ai < antagonists; ai++ {
		wg.Add(1)
		go func(ai int) {
			defer wg.Done()
			w := q.Worker(1 + poppers + ai)
			rng := rand.New(rand.NewSource(seed ^ int64(ai+1)*0x9e3779b9))
			rs := make([]popRec, 0, perAntagonist/3+1)
			<-start
			for i := 0; i < perAntagonist; i++ {
				w.Push(uint64(rng.Intn(int(loPrefill))), uint64(1<<40+i))
				if i%3 == 2 {
					// The elimination antagonist: a pop issued right
					// behind a below-head push, racing the exchange
					// publish/take windows. Its observations join the
					// displacement analysis like any popper's.
					st := clock.Add(1)
					p, _, ok := w.Pop()
					en := clock.Add(1)
					if ok {
						rs = append(rs, popRec{st, en, p})
					}
				}
			}
			recs[poppers+ai] = rs
		}(ai)
	}
	close(start)
	wg.Wait()

	// Prefilled items never popped during the phase were continuously
	// present throughout every concurrent pop: give them an infinite
	// pop start so they constrain every pop interval.
	inf := clock.Load() + 1
	type present struct {
		start uint64 // clock at which this item's own pop began
		p     uint64
	}
	var ys []present
	var xs []popRec
	for _, rs := range recs {
		for _, r := range rs {
			if r.p >= loPrefill {
				ys = append(ys, present{r.start, r.p})
				xs = append(xs, r)
			}
		}
	}
	for {
		p, _, ok := w0.Pop()
		if !ok {
			break
		}
		if p >= loPrefill {
			ys = append(ys, present{inf, p})
		}
	}
	slices.SortFunc(ys, func(a, b present) int { return cmp.Compare(a.start, b.start) })
	sufMin := make([]uint64, len(ys)+1)
	sufMin[len(ys)] = ^uint64(0)
	for i := len(ys) - 1; i >= 0; i-- {
		sufMin[i] = min(sufMin[i+1], ys[i].p)
	}
	violations := 0
	for _, x := range xs {
		// First item whose own pop began strictly after x returned.
		idx, _ := slices.BinarySearchFunc(ys, x.end, func(y present, end uint64) int {
			return cmp.Compare(y.start, end)
		})
		for idx < len(ys) && ys[idx].start <= x.end {
			idx++
		}
		if m := sufMin[idx]; m < x.p {
			violations++
			if violations <= 5 {
				t.Errorf("displaced pop: returned %d during [%d,%d] while an item with priority %d was continuously in the queue",
					x.p, x.start, x.end, m)
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d displaced pops of %d prefilled pops — concurrent exactness (rank bound 0) violated", violations, len(xs))
	}
}

// TestConcurrentExactness runs the timestamped displacement check at a
// size the main test job can afford; the stress suite soaks the same
// checker at elevated iterations (see stress_test.go).
func TestConcurrentExactness(t *testing.T) {
	prefill, per := 6000, 3000
	if testing.Short() {
		prefill, per = 1200, 600
	}
	for _, cap_ := range []int{8, 64} {
		exactnessRun(t, 4, prefill, 2, per, cap_, int64(cap_)*31+1)
	}
}

// TestRetention verifies the queue keeps no references to popped
// payloads: chunks zero claimed slots, and recycled candidates are
// scrubbed (same discipline as the pq/klsm pool retention tests).
func TestRetention(t *testing.T) {
	q := New[*[64]byte](Config{Workers: 1, ChunkCap: 8})
	w := q.Worker(0)
	const n = 60
	released := make(chan int, n)
	for i := 0; i < n; i++ {
		payload := &[64]byte{}
		runtime.AddCleanup(payload, func(i int) { released <- i }, i)
		w.Push(uint64(i%7), payload)
	}
	for i := 0; i < n; i++ {
		if _, _, ok := w.Pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	got := 0
	for attempt := 0; attempt < 20 && got < n; attempt++ {
		runtime.GC()
		for {
			select {
			case <-released:
				got++
				continue
			default:
			}
			break
		}
	}
	if got != n {
		t.Fatalf("only %d of %d popped payloads were released — the queue retains them", got, n)
	}
	runtime.KeepAlive(q)
}
