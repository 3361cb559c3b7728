package cbpq

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pq"
)

// TestSortItems runs sortItems against slices.SortFunc by priority on
// full-range keys, long runs of ties, presorted and reversed input, at
// lengths on both sides of the insertion-sort cutoff. Every payload must
// come out exactly once, and the scratch must be left holding none.
func TestSortItems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := []struct {
		name string
		key  func(i, n int) uint64
	}{
		{"random", func(int, int) uint64 { return rng.Uint64() }},
		{"ties", func(int, int) uint64 { return uint64(rng.Intn(3)) << 40 }},
		{"clustered", func(int, int) uint64 { return uint64(rng.Intn(4))<<48 | uint64(rng.Intn(1<<16)) }},
		{"presorted", func(i, _ int) uint64 { return uint64(i) << 20 }},
		{"reversed", func(i, n int) uint64 { return uint64(n-i) * 0x0101_0101_0101 }},
		{"top-byte", func(int, int) uint64 { return uint64(rng.Intn(256)) << 56 }},
	}
	var tmp []pq.Item[int]
	for _, k := range keys {
		for _, n := range []int{0, 1, 2, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 4 * insertionCutoff, 3000} {
			t.Run(fmt.Sprintf("%s/%d", k.name, n), func(t *testing.T) {
				m := make([]pq.Item[int], n)
				for i := range m {
					m[i] = pq.Item[int]{P: k.key(i, n), V: i + 1}
				}
				want := slices.Clone(m)
				slices.SortFunc(want, func(a, b pq.Item[int]) int { return cmp.Compare(a.P, b.P) })
				sortItems(m, &tmp)
				seen := make([]bool, n+1)
				for i, it := range m {
					if it.P != want[i].P {
						t.Fatalf("position %d: priority %d, slices.SortFunc has %d", i, it.P, want[i].P)
					}
					if it.V < 1 || it.V > n || seen[it.V] {
						t.Fatalf("position %d: payload %d lost or duplicated", i, it.V)
					}
					seen[it.V] = true
				}
				for _, it := range tmp[:cap(tmp)] {
					if it.V != 0 {
						t.Fatalf("scratch retains payload %d", it.V)
					}
				}
			})
		}
	}
}
