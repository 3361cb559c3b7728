//go:build !race

// testing.AllocsPerRun under the race detector measures the
// instrumentation's allocations, not the scheduler's; CI runs these
// through a dedicated non-race step.

package cbpq

import (
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// CBPQ cannot be zero-alloc in steady state: a winning rebuild
// publishes its candidate chunks, and published memory can never
// return to a pool without epoch reclamation (pooling it would ABA the
// root CAS; only CAS losers recycle through the per-worker freelist).
// What the design guarantees instead is amortization, and these gates
// pin each facet of it separately:
//
//   - draining pays one rebuild (a handful of chunk allocations, the
//     front segment and the segment index) per ~ChunkCap pops;
//   - inserts into interior chunks are allocation-free CAS publishes,
//     paying one split per ~ChunkCap/2 inserts into a given chunk, and
//     a split's bytes do not grow with the number of resident chunks;
//   - an insert below the head's range is the structure's worst case
//     (without help, one first-chunk rebuild each); such inserts
//     collect in buf, and one combining rebuild merges them in bulk.
//
// The hold-model microbench (pop-min + push-uniform at equal rates)
// degenerates toward that third case as the resident set drifts to the
// top of the key range, and amortizes through combining.

// TestSteadyStateDrainAllocs: pops are one claim CAS on the packed head
// word; a rebuild refills the head every ~ChunkCap pops, so a pure
// drain runs at O(1/ChunkCap) allocations per pop — AllocsPerRun
// reports the integral floor of the average, so anything under one
// alloc/op measures as 0, and the gate fails as soon as the average
// reaches a full allocation per pop.
func TestSteadyStateDrainAllocs(t *testing.T) {
	s := New[int](Config{Workers: 1})
	w := s.Worker(0)
	rng := xrand.New(42)
	for i := 0; i < 1<<15; i++ {
		w.Push(uint64(rng.Intn(1<<20)), i)
	}
	allocs := testing.AllocsPerRun(8000, func() {
		if _, _, ok := w.Pop(); !ok {
			t.Fatal("drained during the measured window")
		}
	})
	if allocs > 0.6 {
		t.Fatalf("steady-state pop allocates %.3f allocs/op, want <= 0.6 (rebuild amortization regressed)", allocs)
	}
}

// TestSteadyStateInsertAllocs: uniform inserts into a large resident
// set overwhelmingly hit interior chunks (no allocation), with splits
// amortized over ~ChunkCap/2 inserts per chunk — again well under one
// alloc/op, so the integral AllocsPerRun average must stay 0.
func TestSteadyStateInsertAllocs(t *testing.T) {
	s := New[int](Config{Workers: 1})
	w := s.Worker(0)
	rng := xrand.New(42)
	for i := 0; i < 1<<15; i++ {
		w.Push(uint64(rng.Intn(1<<20)), i)
	}
	allocs := testing.AllocsPerRun(8000, func() {
		w.Push(uint64(rng.Intn(1<<20)), 0)
	})
	if allocs > 0.8 {
		t.Fatalf("steady-state push allocates %.3f allocs/op, want <= 0.8 (split amortization regressed)", allocs)
	}
}

// TestSplitCostIndependentOfResidentSize pins the segmented spine: a
// split rewrites one segment and copies the segment index, so what a
// uniform insert allocates — its share of a split — must not grow with
// the number of resident chunks. A spine copied whole on every split
// makes an insert into 2^17 resident tasks allocate about five times
// what one into 2^12 does.
func TestSplitCostIndependentOfResidentSize(t *testing.T) {
	perInsert := func(resident int) float64 {
		s := New[int](Config{Workers: 1})
		w := s.Worker(0)
		rng := xrand.New(42)
		for i := 0; i < resident; i++ {
			w.Push(uint64(rng.Intn(1<<30)), i)
		}
		const inserts = 1 << 13
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < inserts; i++ {
			w.Push(uint64(rng.Intn(1<<30)), i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / inserts
	}
	small, large := perInsert(1<<12), perInsert(1<<17)
	t.Logf("bytes allocated per insert: %.0f at 2^12 resident, %.0f at 2^17", small, large)
	if large >= 2*small {
		t.Fatalf("an insert allocates %.0f B with 2^17 tasks resident against %.0f B with 2^12 — a split's cost grows with the queue", large, small)
	}
}

// TestSteadyStateDecrementalAllocs pins the combining path's win on the
// structure's worst case: the decremental-key pattern
// (pop-then-push-nearby, e.g. SSSP relaxations) re-inserts below the
// head's range every time. Without combining every pop+push pair would
// pay one first-chunk rebuild (~8 allocations); with it the pushes
// collect in buf and one rebuild merges a buf's worth of them. The gate
// bounds the pair at 2 allocs/op and asserts the combining counter
// actually fired, so the path cannot silently rot back into per-pair
// rebuilds.
func TestSteadyStateDecrementalAllocs(t *testing.T) {
	s := New[int](Config{Workers: 1})
	w := s.Worker(0)
	rng := xrand.New(42)
	for i := 0; i < 4096; i++ {
		w.Push(uint64(rng.Intn(1<<20)), i)
	}
	allocs := testing.AllocsPerRun(4000, func() {
		p, v, ok := w.Pop()
		if !ok {
			w.Push(uint64(rng.Intn(1<<20)), 0)
			return
		}
		w.Push(p+uint64(rng.Intn(64)), v)
	})
	if allocs > 2 {
		t.Fatalf("decremental pop+push allocates %.3f allocs/op, want <= 2 (combining amortization regressed)", allocs)
	}
	if st := s.Stats(); st.Combines == 0 {
		t.Fatalf("decremental workload recorded zero combined inserts (stats: %+v) — the combining path is dead", st)
	}
}
