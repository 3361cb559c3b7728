package cbpq

import "testing"

// checkSpine verifies the shape of q's current spine, which must be
// quiescent (no operation in flight): no segment is empty or holds more
// than segCap chunks, a segment's slots past its count are nil (so it
// pins no retired chunk), smins[j] is segment j's first min, every
// chunk.min matches its mins entry, mins ascend across all chunks, every
// interior item lies in its chunk's range, and no unclaimed head item
// exceeds the first interior min.
func checkSpine[T any](t *testing.T, q *Queue[T]) {
	t.Helper()
	s := q.root.Load()
	if len(s.smins) != len(s.segs) {
		t.Fatalf("spine: %d smins for %d segments", len(s.smins), len(s.segs))
	}
	var prev uint64
	for j, sg := range s.segs {
		if sg.n < 1 || sg.n > segCap {
			t.Fatalf("spine: segment %d holds %d chunks, want 1..%d", j, sg.n, segCap)
		}
		for k := sg.n; k < segCap; k++ {
			if sg.chunks[k] != nil {
				t.Fatalf("spine: segment %d slot %d past its count %d is not nil", j, k, sg.n)
			}
		}
		if s.smins[j] != sg.mins[0] {
			t.Fatalf("spine: smins[%d] = %d, segment's first min is %d", j, s.smins[j], sg.mins[0])
		}
		for k, c := range sg.chunks[:sg.n] {
			if c.min != sg.mins[k] {
				t.Fatalf("spine: chunk (%d,%d) min %d, mins entry %d", j, k, c.min, sg.mins[k])
			}
			if c.min < prev {
				t.Fatalf("spine: chunk (%d,%d) min %d below its predecessor's %d", j, k, c.min, prev)
			}
			prev = c.min
			hi := s.nextMin(j, k)
			for _, it := range c.items[:c.ctl.Load()&ctlCount] {
				if it.P < c.min || it.P > hi {
					t.Fatalf("spine: chunk (%d,%d) range [%d,%d] holds priority %d", j, k, c.min, hi, it.P)
				}
			}
		}
	}
	if len(s.smins) > 0 {
		h := s.head
		for i := int(h.idx.Load() & headIdxMask); i < h.n; i++ {
			if h.items[i].P > s.smins[0] {
				t.Fatalf("spine: head item %d above the first interior min %d", h.items[i].P, s.smins[0])
			}
		}
	}
}
