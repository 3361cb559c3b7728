package smq_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	smq "repro"
)

func TestProcessVisitsEveryTask(t *testing.T) {
	s := smq.NewStealingMQ[int](smq.SMQConfig{Workers: 4})
	const n = 5000
	var visited atomic.Int64
	smq.Process(s,
		func(w smq.Worker[int]) {
			for i := 0; i < n; i++ {
				w.Push(uint64(i), i)
			}
		},
		func(_ int, _ smq.Worker[int], _ *smq.Pending, _ uint64, _ int) {
			visited.Add(1)
		})
	if visited.Load() != n {
		t.Fatalf("visited %d tasks, want %d", visited.Load(), n)
	}
}

func TestProcessFollowOnTasks(t *testing.T) {
	// A binary expansion: each task below the cutoff spawns two children;
	// the total must be exactly 2^(depth+1)-1.
	s := smq.NewStealingMQ[uint32](smq.SMQConfig{Workers: 4})
	const depth = 12
	var visited atomic.Int64
	smq.Process(s,
		func(w smq.Worker[uint32]) {
			w.Push(0, 1) // root at id 1, level = bit length
		},
		func(_ int, w smq.Worker[uint32], pending *smq.Pending, p uint64, id uint32) {
			visited.Add(1)
			if id < 1<<depth {
				pending.Inc(1)
				w.Push(p+1, id*2)
				pending.Inc(1)
				w.Push(p+1, id*2+1)
			}
		})
	want := int64(1<<(depth+1)) - 1
	if visited.Load() != want {
		t.Fatalf("visited %d nodes, want %d", visited.Load(), want)
	}
}

func TestProcessEmptySeed(t *testing.T) {
	s := smq.NewStealingMQ[int](smq.SMQConfig{Workers: 2})
	done := false
	smq.Process(s,
		func(w smq.Worker[int]) {},
		func(_ int, _ smq.Worker[int], _ *smq.Pending, _ uint64, _ int) {
			done = true
		})
	if done {
		t.Fatal("callback fired with no tasks")
	}
}

// expandTree drives the binary expansion of TestProcessFollowOnTasks
// (node id spawns 2id and 2id+1 below the cutoff) through Process with
// the given way of emitting the two children, and checks that every node
// is visited exactly once.
func expandTree(t *testing.T, s smq.Scheduler[uint32], depth int,
	emit func(w smq.Worker[uint32], pending *smq.Pending, p uint64, id uint32)) {
	t.Helper()
	want := 1<<(depth+1) - 1
	seen := make([]atomic.Int32, want+1)
	smq.Process(s,
		func(w smq.Worker[uint32]) { w.Push(0, 1) },
		func(_ int, w smq.Worker[uint32], pending *smq.Pending, p uint64, id uint32) {
			seen[id].Add(1)
			if id < 1<<depth {
				emit(w, pending, p, id)
			}
		})
	for id := 1; id <= want; id++ {
		if n := seen[id].Load(); n != 1 {
			t.Fatalf("node %d of %d visited %d times, want once", id, want, n)
		}
	}
}

// emitScalar is the documented protocol: Inc(1) before each Push.
func emitScalar(w smq.Worker[uint32], pending *smq.Pending, p uint64, id uint32) {
	pending.Inc(1)
	w.Push(p+1, id*2)
	pending.Inc(1)
	w.Push(p+1, id*2+1)
}

// TestProcessConservesAcrossTheZoo runs the expansion through every
// named scheduler at 1, 2 and 4 workers.
func TestProcessConservesAcrossTheZoo(t *testing.T) {
	depth := 11
	if testing.Short() {
		depth = 8
	}
	for _, spec := range smq.Lineup[uint32]() {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", spec.Name, workers), func(t *testing.T) {
				expandTree(t, spec.Make(workers, 7), depth, emitScalar)
			})
		}
	}
}

// TestProcessEmitVariants covers the two other ways a callback may
// publish follow-ons: the handle's PushN, and one Inc(k) for k pushes.
func TestProcessEmitVariants(t *testing.T) {
	for name, emit := range map[string]func(smq.Worker[uint32], *smq.Pending, uint64, uint32){
		"PushN": func(w smq.Worker[uint32], pending *smq.Pending, p uint64, id uint32) {
			pending.Inc(2)
			w.PushN([]uint64{p + 1, p + 1}, []uint32{id * 2, id*2 + 1})
		},
		"IncK": func(w smq.Worker[uint32], pending *smq.Pending, p uint64, id uint32) {
			pending.Inc(2)
			w.Push(p+1, id*2)
			w.Push(p+1, id*2+1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			expandTree(t, smq.NewStealingMQ[uint32](smq.SMQConfig{Workers: 4}), 12, emit)
			expandTree(t, smq.NewMultiQueue[uint32](smq.MQConfig{Workers: 4}), 12, emit)
		})
	}
}

// TestProcessSSSPMatchesDijkstra writes SSSP against Process as a
// library user would and compares with the sequential baseline.
func TestProcessSSSPMatchesDijkstra(t *testing.T) {
	g := smq.GenerateRoadGrid(48, 48, 3)
	ref := smq.DijkstraSeq(g, 0)
	for _, name := range []string{"smq", "mq", "obim", "cbpq"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := smq.LookupSpec[uint32](name)
			if !ok {
				t.Fatalf("no spec %q", name)
			}
			dist := make([]atomic.Uint64, g.N)
			for i := range dist {
				dist[i].Store(smq.Unreachable)
			}
			dist[0].Store(0)
			smq.Process(spec.Make(4, 11),
				func(w smq.Worker[uint32]) { w.Push(0, 0) },
				func(_ int, w smq.Worker[uint32], pending *smq.Pending, p uint64, u uint32) {
					du := dist[u].Load()
					if p > du {
						return // stale
					}
					ts, ws := g.Neighbors(u)
					for i, v := range ts {
						nd := du + uint64(ws[i])
						for old := dist[v].Load(); nd < old; old = dist[v].Load() {
							if dist[v].CompareAndSwap(old, nd) {
								pending.Inc(1)
								w.Push(nd, v)
								break
							}
						}
					}
				})
			for v := range dist {
				if got := dist[v].Load(); got != ref[v] {
					t.Fatalf("dist[%d] = %d, sequential Dijkstra says %d", v, got, ref[v])
				}
			}
		})
	}
}

// TestProcessSpreadsCoarseTasks seeds every job at worker 0 of a
// two-worker SMQ and gives each a body that blocks for about a
// millisecond (sleeping, so the outcome does not depend on how many
// cores the machine has to spare). Jobs that coarse must not wait
// behind the owner's popped batch: the owner republishes as many tasks
// as each pop took, so the thief takes a batch for every batch of the
// owner's. An owner that offered StealSize = 1 task per pop of 8 would
// leave the thief one job in nine.
func TestProcessSpreadsCoarseTasks(t *testing.T) {
	const workers, jobs = 2, 300
	s := smq.NewStealingMQ[int](smq.SMQConfig{Workers: workers, StealSize: 1})
	var ran [workers]atomic.Int64
	smq.Process(s,
		func(w smq.Worker[int]) {
			for j := 0; j < jobs; j++ {
				w.Push(uint64(j), j)
			}
		},
		func(wid int, _ smq.Worker[int], _ *smq.Pending, _ uint64, _ int) {
			ran[wid].Add(1)
			time.Sleep(200 * time.Microsecond)
		})
	for wid := range ran {
		if n := ran[wid].Load(); n < jobs*3/10 {
			t.Errorf("worker %d ran %d of %d jobs, want at least %d: split [%d %d]",
				wid, n, jobs, jobs*3/10, ran[0].Load(), ran[1].Load())
		}
	}
}
