package cbpq

import (
	"slices"

	"repro/internal/pq"
)

// insertionCutoff is the longest run sortItems sorts by insertion. A
// radix pass costs a 256-entry count and prefix sum per key byte: on
// 22-bit keys (three passes, one 2-vCPU Xeon VM) insertion sort takes
// 0.43 µs for 40 items
// against the radix sort's 0.87, the two meet at 64, and at 100 items
// the radix sort takes 1.1–1.4 µs against 2.9.
const insertionCutoff = 64

// sortItems sorts m ascending by priority. It is the package's
// one sort — PushN's batch, rebuild's unordered tail, partitionMid's
// final segment — and never calls a comparator:
//
//   - one scan returns at once when m is already in order (serve's
//     ingest batches arrive in Enq order);
//   - runs of up to insertionCutoff items are insertion-sorted, starting
//     after the ascending prefix the scan found;
//   - longer runs take an LSD radix sort over only the bytes in which
//     their priorities differ, ping-ponging through the worker-owned
//     scratch *tmp, which is cleared afterwards so it retains no payload.
func sortItems[T any](m []pq.Item[T], tmp *[]pq.Item[T]) {
	i := 1
	for i < len(m) && m[i-1].P <= m[i].P {
		i++
	}
	if i >= len(m) {
		return
	}
	if len(m) <= insertionCutoff {
		for ; i < len(m); i++ {
			it := m[i]
			j := i
			for ; j > 0 && m[j-1].P > it.P; j-- {
				m[j] = m[j-1]
			}
			m[j] = it
		}
		return
	}
	var diff uint64
	for _, it := range m[1:] {
		diff |= it.P ^ m[0].P
	}
	buf := slices.Grow((*tmp)[:0], len(m))[:len(m)]
	src, dst := m, buf
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var count [256]int
		for _, it := range src {
			count[byte(it.P>>shift)]++
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, it := range src {
			b := byte(it.P >> shift)
			dst[count[b]] = it
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &m[0] {
		copy(m, src)
	}
	clear(buf)
	*tmp = buf[:0]
}

// partitionMid reorders m (len >= 2) so that every element of m[:mid]
// is <= every element of m[mid:] and m[mid] holds exactly the value a
// full sort would place at mid, where mid = len(m)/2. Hoare-partition
// quickselect with median-of-three pivots, finishing with sortItems once
// the segment straddling mid is small. Deterministic (no randomness),
// so concurrent helpers partitioning identical frozen snapshots still
// build equivalent split candidates; expected O(n) versus the
// O(n log n) full sort it replaces, and n is bounded by ChunkCap.
func partitionMid[T any](m []pq.Item[T], tmp *[]pq.Item[T]) int {
	mid := len(m) / 2
	lo, hi := 0, len(m)
	for hi-lo > 8 {
		p := med3(m[lo].P, m[(lo+hi)/2].P, m[hi-1].P)
		i, j := lo-1, hi
		for {
			for i++; m[i].P < p; i++ {
			}
			for j--; m[j].P > p; j-- {
			}
			if i >= j {
				break
			}
			m[i], m[j] = m[j], m[i]
		}
		// Hoare invariant: m[lo:j+1] <= p <= m[j+1:hi], and with a
		// median-of-three pivot j lands strictly inside the segment, so
		// narrowing to the side holding mid always makes progress.
		if mid <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	sortItems(m[lo:hi], tmp)
	return mid
}

// med3 returns the median of three priorities.
func med3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}
