package cbpq

// segCap bounds the interior chunks one segment holds. Structural
// changes rewrite whole segments and copy the segment index, so a split
// costs O(segCap + L/segCap) pointer copies for L interior chunks rather
// than the O(L) of one flat array: the spine of a large queue (hundreds
// to thousands of chunks) is never copied whole.
const segCap = 32

// seg is an immutable run of at most segCap consecutive interior chunks,
// ascending by min; a spine shares every segment a structural change
// does not touch. mins mirrors chunks[i].min in a flat pointer-free array
// so the per-push binary search probes one cache-resident uint64 run
// instead of chasing a chunk pointer per probe. The arrays are inline so
// a segment is one allocation and one pointer away from the spine.
type seg[T any] struct {
	n      int
	mins   [segCap]uint64
	chunks [segCap]*chunk[T]
}

// spine is the immutable root snapshot: the sorted head, the head-range
// insertion buffer, and the interior chunks ascending by min, held in
// segments. smins[j] is segs[j].mins[0], the index the first of a push's
// two binary searches probes. No segment is empty, so a spine without
// interior chunks is exactly one with no segments. Every structural
// change installs a fresh spine with one CAS.
type spine[T any] struct {
	head  *chunk[T]
	buf   *chunk[T]
	segs  []*seg[T]
	smins []uint64
}

// locate returns the position of the interior chunk owning priority p —
// the last chunk with min <= p — as segment j and index k within it, or
// j = -1 when p belongs to the head range and must go through buf.
// mins ascend across segments, so the last segment whose first min is
// <= p holds that chunk.
func (s *spine[T]) locate(p uint64) (j, k int) {
	j = lastLE(s.smins, p)
	if j < 0 {
		return -1, 0
	}
	sg := s.segs[j]
	return j, lastLE(sg.mins[:sg.n], p)
}

// nextMin returns the exclusive upper bound of chunk (j, k)'s range: the
// next chunk's min, read across a segment boundary, or ^0 for the last
// chunk.
func (s *spine[T]) nextMin(j, k int) uint64 {
	if sg := s.segs[j]; k+1 < sg.n {
		return sg.mins[k+1]
	}
	if j+1 < len(s.smins) {
		return s.smins[j+1]
	}
	return ^uint64(0)
}

// lastLE returns the index of the last element of the ascending mins
// that is <= p, or -1 when there is none.
func lastLE(mins []uint64, p uint64) int {
	if len(mins) == 0 || p < mins[0] {
		return -1
	}
	lo, hi := 0, len(mins)
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if mins[mid] <= p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// rewrite returns the spine with head h and buf b whose segments are s's
// except that s.segs[lo:hi] is replaced by the chunks cs, cut into the
// fewest segments of at most segCap and equal size (a split that
// overflows its segment cuts it into halves). Every other segment is
// shared, so the cost is O(len(cs) + len(s.segs)) pointer copies however
// many chunks the spine holds. The cut depends only on len(cs), so
// helpers rewriting the same frozen snapshot build equivalent spines.
func (s *spine[T]) rewrite(h, b *chunk[T], lo, hi int, cs []*chunk[T]) *spine[T] {
	nseg := (len(cs) + segCap - 1) / segCap
	n := len(s.segs) - (hi - lo) + nseg
	segs := make([]*seg[T], 0, n)
	smins := make([]uint64, 0, n)
	segs = append(segs, s.segs[:lo]...)
	smins = append(smins, s.smins[:lo]...)
	for ; nseg > 0; nseg-- {
		r := (len(cs) + nseg - 1) / nseg
		sg := &seg[T]{n: r}
		copy(sg.chunks[:], cs[:r])
		for i, c := range cs[:r] {
			sg.mins[i] = c.min
		}
		segs = append(segs, sg)
		smins = append(smins, sg.mins[0])
		cs = cs[r:]
	}
	segs = append(segs, s.segs[hi:]...)
	smins = append(smins, s.smins[hi:]...)
	return &spine[T]{head: h, buf: b, segs: segs, smins: smins}
}
