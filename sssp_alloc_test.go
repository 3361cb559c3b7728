//go:build !race

package smq_test

import (
	"runtime"
	"testing"

	smq "repro"
)

// TestSSSPAllocatesOneDistanceArray gates what one SSSP call allocates:
// the distances live in one plain []uint64 that the workers update in
// place and the call returns as it is, so the call may allocate its n
// words and a bounded rest (the worker loop's state, the local heap's
// growth), not a second array to copy the distances into. One worker
// keeps the measurement free of steal-buffer traffic.
func TestSSSPAllocatesOneDistanceArray(t *testing.T) {
	const side = 256
	g := smq.GenerateRoadGrid(side, side, 1)
	spec, _ := smq.LookupSpec[uint32]("smq")
	s := spec.Make(1, 1)
	n := uint64(g.N)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dist, res := smq.SSSP(g, side/2*side+side/2, s)
	runtime.ReadMemStats(&after)
	if res.Tasks == 0 || dist[side/2*side+side/2] != 0 {
		t.Fatalf("SSSP ran %d tasks, source distance %d", res.Tasks, dist[side/2*side+side/2])
	}
	const slack = 64 << 10
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*n+slack {
		t.Fatalf("SSSP on n = %d allocated %d bytes (%.2f per vertex), want at most 8·n + %d",
			n, grew, float64(grew)/float64(n), slack)
	}
}
