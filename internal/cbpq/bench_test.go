package cbpq

import (
	"fmt"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/sched"
	"repro/internal/xrand"
)

func BenchmarkCBPQ_Throughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchutil.Throughput(b, New[int](Config{Workers: workers}), 1<<12)
		})
	}
}

// residents are the prefill sizes of the hold-pattern benchmarks: about
// 40, 600 and 2 500 interior chunks at the default ChunkCap, so a
// per-split cost that grows with the chunk count shows as a rising
// ns/op across the three.
var residents = []int{1 << 12, 1 << 16, 1 << 18}

// BenchmarkCBPQ_Batch runs PopN→PushN pairs: one index-word CAS claims
// the pop run, one count-word CAS per touched chunk publishes the push
// batch. Reports ns per batch pair.
func BenchmarkCBPQ_Batch(b *testing.B) {
	const batch = 8
	for _, resident := range residents {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			q := New[int](Config{Workers: 1})
			w := q.Worker(0)
			rng := xrand.New(1)
			for i := 0; i < resident; i++ {
				w.Push(uint64(rng.Intn(1_000_000)), i)
			}
			dst := make([]sched.Task[int], batch)
			ps := make([]uint64, batch)
			vs := make([]int, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := w.PopN(dst)
				for j := 0; j < batch; j++ {
					base := uint64(rng.Intn(1_000_000))
					if j < n {
						base = dst[j].P + uint64(rng.Intn(64))
					}
					ps[j], vs[j] = base, j
				}
				w.PushN(ps, vs)
			}
		})
	}
}

// BenchmarkCBPQ_Pop measures the hot pop path alone (one claiming CAS
// on the packed index word, rebuild amortized over ChunkCap pops),
// refilling outside the timer whenever the queue drains.
func BenchmarkCBPQ_Pop(b *testing.B) {
	q := New[int](Config{Workers: 1})
	w := q.Worker(0)
	rng := xrand.New(1)
	refill := func() {
		b.StopTimer()
		for i := 0; i < 1<<14; i++ {
			w.Push(uint64(rng.Intn(1_000_000)), i)
		}
		b.StartTimer()
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := w.Pop(); !ok {
			refill()
		}
	}
}

// BenchmarkCBPQ_Hold runs the decremental hold pattern — pop the
// minimum, push it back slightly above the old head — the workload the
// combining path exists for: the below-head pushes collect in buf until
// a blocked pop merges the whole pending set in one deferred rebuild.
// Reports ns per pop+push pair.
func BenchmarkCBPQ_Hold(b *testing.B) {
	for _, resident := range residents {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			q := New[int](Config{Workers: 1})
			w := q.Worker(0)
			rng := xrand.New(1)
			for i := 0; i < resident; i++ {
				w.Push(1<<20+uint64(rng.Intn(1_000_000)), i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, v, ok := w.Pop()
				if !ok {
					b.Fatal("queue drained")
				}
				w.Push(p+uint64(rng.Intn(64)), v)
			}
		})
	}
}
