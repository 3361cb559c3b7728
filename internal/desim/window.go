package desim

import (
	"sync/atomic"
)

// window tracks, concurrently, how many pending events have timestamps
// below a queried point — the primitive behind the causality check. It
// is a Fenwick (binary indexed) tree of atomic counters over bucketed
// timestamps: Register/Unregister touch O(log n) counters, and Before
// reads a prefix sum with the same cost. All updates use atomic adds,
// so the tree is a commutative CRDT-style counter array: concurrent
// registers and queries interleave freely, and a query returns some
// value between "before all concurrent updates" and "after all of
// them" — which is exactly the slack the engine's violation threshold
// already absorbs (see Config.Lookahead).
type window struct {
	// shift buckets timestamps: bucket = t >> shift. Coarser buckets
	// trade check resolution for tree size; the engine picks the
	// smallest shift that keeps the tree within maxWindowBuckets.
	shift uint
	tree  []atomic.Int64
}

// maxWindowBuckets caps the Fenwick tree's footprint (8 MiB of
// counters). Horizons wider than shift can resolve get coarser buckets,
// never a bigger tree.
const maxWindowBuckets = 1 << 20

// newWindow sizes a tree for timestamps in [0, horizon].
func newWindow(horizon uint64) *window {
	var shift uint
	for (horizon>>shift)+2 > maxWindowBuckets {
		shift++
	}
	return &window{shift: shift, tree: make([]atomic.Int64, (horizon>>shift)+2)}
}

// bucket maps a timestamp to its 1-based Fenwick index, clamped into
// the tree (events at exactly the horizon land in the last bucket).
func (w *window) bucket(t uint64) int {
	i := int(t>>w.shift) + 1
	if i >= len(w.tree) {
		i = len(w.tree) - 1
	}
	return i
}

// Register records a pending event at timestamp t. It must complete
// before the event becomes poppable (register-before-push): the
// scheduler's push→pop happens-before edge then guarantees any pop that
// could observe the event also observes its registration.
func (w *window) Register(t uint64) {
	for i := w.bucket(t); i < len(w.tree); i += i & -i {
		w.tree[i].Add(1)
	}
}

// Unregister removes an event after it has been popped and its
// lookahead lead was measured.
func (w *window) Unregister(t uint64) {
	for i := w.bucket(t); i < len(w.tree); i += i & -i {
		w.tree[i].Add(-1)
	}
}

// Before returns how many registered events have timestamps strictly
// below t's bucket — the popped event's own bucket is excluded, so
// same-bucket (and in particular same-timestamp) events never count as
// a lead. Bucketing therefore under-counts by design: it can only make
// the check more lenient, never report a false violation.
func (w *window) Before(t uint64) int64 {
	var sum int64
	for i := w.bucket(t) - 1; i > 0; i -= i & -i {
		sum += w.tree[i].Load()
	}
	return sum
}
