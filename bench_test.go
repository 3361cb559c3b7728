package smq

// The two design ablations of the SMQ that no smqbench experiment runs:
// the local heap's arity inside the full scheduler, and the steal
// buffer's publication protocol against a mutex. Every figure and table
// of the paper is regenerated by `go run ./cmd/smqbench -exp <id>`, the
// one runner per figure. The arity benchmark's ns/op is one whole SSSP
// run.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sched"
)

const benchWorkers = 4

var (
	benchRoadOnce sync.Once
	benchRoad     *graph.CSR
)

func benchRoadGraph() *graph.CSR {
	benchRoadOnce.Do(func() { benchRoad = graph.GenerateRoadGrid(128, 64, 42) })
	return benchRoad
}

func benchSSSP(b *testing.B, mk func() sched.Scheduler[uint32], g *graph.CSR) {
	b.Helper()
	src := g.MaxOutDegreeVertex()
	b.ReportAllocs()
	b.ResetTimer()
	var tasks uint64
	for i := 0; i < b.N; i++ {
		_, res := SSSP(g, src, mk())
		tasks += res.Tasks
	}
	b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
}

// --- Design ablations --------------------------------------------------

// BenchmarkAblation_HeapArity compares local-heap fan-outs inside the
// full SMQ (design decision 4: d = 4).
func BenchmarkAblation_HeapArity(b *testing.B) {
	road := benchRoadGraph()
	for _, d := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return core.NewStealingMQ[uint32](core.Config{Workers: benchWorkers, HeapArity: d})
			}, road)
		})
	}
}

// mutexBuffer is the obvious lock-based alternative to the epoch/CAS
// stealing buffer, used only by the ablation benchmark below.
type mutexBuffer struct {
	mu    sync.Mutex
	items []pq.Item[int]
}

func (m *mutexBuffer) fill(items []pq.Item[int]) {
	m.mu.Lock()
	m.items = append(m.items[:0], items...)
	m.mu.Unlock()
}

func (m *mutexBuffer) steal(dst []pq.Item[int]) []pq.Item[int] {
	m.mu.Lock()
	dst = append(dst, m.items...)
	m.items = m.items[:0]
	m.mu.Unlock()
	return dst
}

// BenchmarkAblation_StealBuffer compares the paper's single-word
// epoch publication protocol against a mutex-guarded buffer on the
// publish→claim cycle (design decision 3). Neither allocates; the epoch
// protocol never blocks thieves behind the owner.
func BenchmarkAblation_StealBuffer(b *testing.B) {
	batch := []pq.Item[int]{{P: 1, V: 1}, {P: 2, V: 2}, {P: 3, V: 3}, {P: 4, V: 4}}
	b.Run("epochCAS", func(b *testing.B) {
		q := core.NewBenchQueue(4)
		dst := make([]pq.Item[int], 0, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Refill(batch) // owner publishes
			dst = q.Steal(dst[:0])
			if len(dst) == 0 {
				b.Fatal("steal failed")
			}
		}
	})
	b.Run("mutex", func(b *testing.B) {
		var q mutexBuffer
		dst := make([]pq.Item[int], 0, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.fill(batch)
			dst = q.steal(dst[:0])
			if len(dst) == 0 {
				b.Fatal("steal failed")
			}
		}
	})
}
