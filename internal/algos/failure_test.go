package algos

// Failure-injection tests: the algorithms must stay exact
// under adversarial scheduler behaviour — spurious Pop failures, forced
// goroutine interleaving, and maximally relaxed pop order — because the
// scheduler contract explicitly permits all three.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// flakySched wraps a scheduler and injects spurious Pop failures with
// probability failProb — exercising the termination protocol's tolerance
// for relaxed emptiness.
type flakySched struct {
	inner    sched.Scheduler[uint32]
	failProb float64
	workers  []flakyWorker
}

type flakyWorker struct {
	inner sched.Worker[uint32]
	s     *flakySched
	rng   *xrand.Rand
}

func newFlaky(inner sched.Scheduler[uint32], failProb float64) *flakySched {
	s := &flakySched{inner: inner, failProb: failProb}
	s.workers = make([]flakyWorker, inner.Workers())
	for i := range s.workers {
		s.workers[i] = flakyWorker{inner: inner.Worker(i), s: s, rng: xrand.New(uint64(i + 77))}
	}
	return s
}

func (s *flakySched) Workers() int { return s.inner.Workers() }
func (s *flakySched) Worker(w int) sched.Worker[uint32] {
	return &s.workers[w]
}
func (s *flakySched) Stats() sched.Stats { return s.inner.Stats() }

func (w *flakyWorker) Push(p uint64, v uint32) { w.inner.Push(p, v) }

func (w *flakyWorker) PushN(ps []uint64, vs []uint32) { w.inner.PushN(ps, vs) }

func (w *flakyWorker) Pop() (uint64, uint32, bool) {
	if w.rng.Bernoulli(w.s.failProb) {
		return pq.InfPriority, 0, false // spurious failure
	}
	return w.inner.Pop()
}

func (w *flakyWorker) PopN(dst []sched.Task[uint32]) int {
	if w.rng.Bernoulli(w.s.failProb) {
		return 0 // spurious batch-wide failure
	}
	return w.inner.PopN(dst)
}

// yieldSched forces a goroutine yield around every operation, shaking
// out interleavings the Go scheduler would rarely produce on few cores.
type yieldSched struct {
	inner   sched.Scheduler[uint32]
	workers []yieldWorker
}

type yieldWorker struct {
	inner sched.Worker[uint32]
}

func newYield(inner sched.Scheduler[uint32]) *yieldSched {
	s := &yieldSched{inner: inner}
	s.workers = make([]yieldWorker, inner.Workers())
	for i := range s.workers {
		s.workers[i] = yieldWorker{inner: inner.Worker(i)}
	}
	return s
}

func (s *yieldSched) Workers() int { return s.inner.Workers() }
func (s *yieldSched) Worker(w int) sched.Worker[uint32] {
	return &s.workers[w]
}
func (s *yieldSched) Stats() sched.Stats { return s.inner.Stats() }

func (w *yieldWorker) Push(p uint64, v uint32) {
	runtime.Gosched()
	w.inner.Push(p, v)
}

func (w *yieldWorker) PushN(ps []uint64, vs []uint32) {
	runtime.Gosched()
	w.inner.PushN(ps, vs)
}

func (w *yieldWorker) Pop() (uint64, uint32, bool) {
	runtime.Gosched()
	return w.inner.Pop()
}

func (w *yieldWorker) PopN(dst []sched.Task[uint32]) int {
	runtime.Gosched()
	return w.inner.PopN(dst)
}

// lifoSched is the adversarially relaxed scheduler: it ignores
// priorities entirely and serves tasks LIFO from a shared stack. Any
// algorithm that is correct only for near-priority-order pops would
// break here; ours must merely waste more work.
type lifoSched struct {
	mu      sync.Mutex
	stack   []pq.Item[uint32]
	workers int
}

func (s *lifoSched) Workers() int { return s.workers }
func (s *lifoSched) Worker(w int) sched.Worker[uint32] {
	return &lifoWorker{s: s}
}
func (s *lifoSched) Stats() sched.Stats { return sched.Stats{} }

type lifoWorker struct{ s *lifoSched }

func (w *lifoWorker) Push(p uint64, v uint32) {
	w.s.mu.Lock()
	w.s.stack = append(w.s.stack, pq.Item[uint32]{P: p, V: v})
	w.s.mu.Unlock()
}

func (w *lifoWorker) Pop() (uint64, uint32, bool) {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	n := len(w.s.stack)
	if n == 0 {
		return pq.InfPriority, 0, false
	}
	it := w.s.stack[n-1]
	w.s.stack = w.s.stack[:n-1]
	return it.P, it.V, true
}

// The adversarial LIFO queue exercises the generic batch fallbacks.
func (w *lifoWorker) PushN(ps []uint64, vs []uint32) { sched.PushNLoop[uint32](w, ps, vs) }

func (w *lifoWorker) PopN(dst []sched.Task[uint32]) int { return sched.PopNLoop[uint32](w, dst) }

func TestSSSPWithSpuriousFailures(t *testing.T) {
	g := graph.GenerateRoadGrid(20, 20, 3)
	want, _ := DijkstraSeq(g, 0)
	for _, failProb := range []float64{0.2, 0.8} {
		inner := core.NewStealingMQ[uint32](core.Config{Workers: 4})
		got, _ := SSSP(g, 0, newFlaky(inner, failProb))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("failProb=%v: dist[%d] = %d, want %d", failProb, v, got[v], want[v])
			}
		}
	}
}

func TestMSTWithSpuriousFailures(t *testing.T) {
	g := graph.GenerateRoadGrid(12, 12, 5)
	wantW, wantE := KruskalMST(g)
	inner := core.NewStealingMQ[uint32](core.Config{Workers: 4})
	gotW, gotE, _ := BoruvkaMST(g, newFlaky(inner, 0.5))
	if gotW != wantW || gotE != wantE {
		t.Fatalf("MST = (%d,%d), want (%d,%d)", gotW, gotE, wantW, wantE)
	}
}

func TestSSSPWithForcedYields(t *testing.T) {
	g := graph.GenerateRoadGrid(16, 16, 7)
	want, _ := DijkstraSeq(g, 0)
	inner := core.NewStealingMQ[uint32](core.Config{Workers: 4, StealProb: 0.5})
	got, _ := SSSP(g, 0, newYield(inner))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestAlgorithmsUnderMaximallyRelaxedOrder(t *testing.T) {
	// LIFO order: correctness must hold; only wasted work may grow.
	g := graph.GenerateRoadGrid(14, 14, 9)
	want, seq := DijkstraSeq(g, 0)
	got, res := SSSP(g, 0, &lifoSched{workers: 2})
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	if res.Tasks < seq.Tasks {
		t.Fatalf("LIFO cannot do less work than the exact order: %d < %d", res.Tasks, seq.Tasks)
	}
	t.Logf("LIFO work increase: %.2fx", res.WorkIncrease(seq.Tasks))

	levels, _ := BFS(g, 0, &lifoSched{workers: 2})
	wantLvl := BFSSeq(g, 0)
	for v := range wantLvl {
		if levels[v] != wantLvl[v] {
			t.Fatalf("level[%d] = %d, want %d", v, levels[v], wantLvl[v])
		}
	}
}

func TestSSSPPropertyRandomGraphs(t *testing.T) {
	// Property: on arbitrary random graphs, parallel SSSP over the SMQ
	// equals Dijkstra.
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%60) + 2
		m := int(mRaw%300) + 1
		g := graph.GenerateUniformRandom(n, m, 100, seed)
		want, _ := DijkstraSeq(g, 0)
		s := core.NewStealingMQ[uint32](core.Config{Workers: 3, Seed: seed + 1})
		got, _ := SSSP(g, 0, s)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(11)),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTPropertyRandomGrids(t *testing.T) {
	// Property: Boruvka over the SMQ equals Kruskal on arbitrary grids.
	f := func(seed uint64, r, c uint8) bool {
		g := graph.GenerateRoadGrid(int(r%10)+2, int(c%10)+2, seed)
		wantW, wantE := KruskalMST(g)
		gotW, gotE, _ := BoruvkaMST(g, core.NewStealingMQ[uint32](core.Config{Workers: 3, Seed: seed + 1}))
		return gotW == wantW && gotE == wantE
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(13)),
	}); err != nil {
		t.Fatal(err)
	}
}
