package perfbench

import (
	"math"
	"math/bits"
)

// Histogram is a log-bucketed latency histogram: values are binned by
// their power-of-two magnitude, linearly subdivided into histSubBuckets
// per octave (the HdrHistogram layout with 4 significant bits). Across
// the nanosecond range a pop latency can plausibly occupy (1ns..~17s)
// the relative quantization error is bounded by 1/histSubBuckets ≈ 6%,
// which is far below run-to-run noise, while recording stays two shifts
// and an increment — cheap enough to sit inside a timed pop loop.
//
// It backs the per-tenant sojourn percentiles of internal/serve and
// internal/desim — any consumer needing cheap in-loop percentile
// recording can use it.
//
// The zero value is ready to use. It is not safe for concurrent use;
// workers record into private histograms that are Merge'd afterwards.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
}

const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits // linear sub-buckets per octave
	// Values below histSubBuckets get exact unit buckets; above, one
	// bucket group per octave. 64-bit values need (64-histSubBits)
	// groups on top of the exact region.
	histBuckets = (64 - histSubBits + 1) * histSubBuckets
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v) // exact unit buckets
	}
	top := bits.Len64(v) - 1 // >= histSubBits
	group := top - histSubBits + 1
	sub := int((v >> (top - histSubBits)) & (histSubBuckets - 1))
	return group*histSubBuckets + sub
}

// bucketLow returns the smallest value mapped to bucket i (the
// conservative percentile estimate: reported latency never exceeds the
// true value by more than one sub-bucket width).
func bucketLow(i int) uint64 {
	if i < histSubBuckets {
		return uint64(i)
	}
	group := i / histSubBuckets
	sub := uint64(i % histSubBuckets)
	top := group + histSubBits - 1
	return 1<<top | sub<<(top-histSubBits)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketIndex(v)]++
	h.count++
}

// Merge accumulates other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
}

// Quantile returns the value at quantile q in [0,1] (lower bucket
// bound), or 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the q-quantile observation, 1-based ceiling so that
	// Quantile(1) is the maximum recorded bucket and p99.9 of fewer than
	// 1000 samples is the maximum, not the runner-up. The product is
	// shaved by a few ulps first: 0.07·100 evaluates to
	// 7.000000000000001 and must give rank 7, not 8.
	rank := uint64(math.Ceil(q * float64(h.count) * (1 - 1e-15)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return bucketLow(i)
		}
	}
	return bucketLow(histBuckets - 1)
}
