package core

import (
	"fmt"
	"testing"

	"repro/internal/benchutil"
)

// Scheduler-level throughput micro-benchmarks (pop→push random walk),
// complementing the end-to-end workload benches at the repository root.

func BenchmarkThroughput_SMQHeap(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchutil.Throughput(b, NewStealingMQ[int](Config{Workers: workers}), 1<<12)
		})
	}
}

func BenchmarkThroughput_SMQSkipList(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchutil.Throughput(b, NewStealingMQSkipList[int](Config{Workers: workers}), 1<<12)
		})
	}
}

func BenchmarkThroughput_SMQHeap_NUMA(b *testing.B) {
	benchutil.Throughput(b, NewStealingMQ[int](Config{Workers: 4, NUMANodes: 2}), 1<<12)
}
