package core

import (
	"sync"
	"testing"

	"repro/internal/pq"
)

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
		q := newHeapQueue[int](4)
		dst := make([]pq.Item[int], 0, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range batch { // the owner pushes and republishes
				q.PushLocal(it.P, it.V)
			}
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
