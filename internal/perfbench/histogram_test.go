package perfbench

import (
	"math/rand"
	"sort"
	"testing"
)

// TestBucketIndexMonotoneAndInvertible checks the two properties the
// percentile math rests on: bucket indices never decrease with the
// value, and bucketLow(i) is the smallest value mapping to bucket i.
func TestBucketIndexMonotoneAndInvertible(t *testing.T) {
	values := []uint64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1023, 1024,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<63 - 1, 1 << 63, ^uint64(0)}
	prev := -1
	for _, v := range values {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, histBuckets)
		}
		if low := bucketLow(i); low > v {
			t.Fatalf("bucketLow(%d) = %d exceeds member value %d", i, low, v)
		}
		prev = i
	}
	for i := 0; i < histBuckets; i++ {
		if got := bucketIndex(bucketLow(i)); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", i, got)
		}
	}
}

// TestQuantileApproximatesExact feeds a known distribution and checks
// the histogram quantiles land within one sub-bucket (≈6% relative) of
// the exact order statistics.
func TestQuantileApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	var h Histogram
	samples := make([]uint64, n)
	for i := range samples {
		// Log-uniform over ~3 decades, like real pop latencies.
		v := uint64(50 * (1 + rng.ExpFloat64()*200))
		samples[i] = v
		h.Record(v)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := float64(samples[int(q*float64(n))-1])
		got := float64(h.Quantile(q))
		if got > exact || got < exact*(1-2.0/histSubBuckets) {
			t.Errorf("Quantile(%v) = %v, exact %v (allowed [%v, %v])",
				q, got, exact, exact*(1-2.0/histSubBuckets), exact)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", got)
	}
	h.Record(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("single-sample Quantile(%v) = %d, want 7", q, got)
		}
	}
	var a, b Histogram
	a.Record(10)
	b.Record(1000)
	a.Merge(&b)
	if a.count != 2 {
		t.Fatalf("merged count = %d, want 2", a.count)
	}
	if got := a.Quantile(1); got < 900 {
		t.Fatalf("merged max quantile = %d, want ~1000", got)
	}

	// Small counts: the rank is the ceiling of q·count, so a tail
	// percentile of a small sample is its maximum and the median of
	// three is the middle one. (All values below 32 have exact buckets.)
	fill := func(vals ...uint64) *Histogram {
		var h Histogram
		for _, v := range vals {
			h.Record(v)
		}
		return &h
	}
	repeat := func(v uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, tc := range []struct {
		name string
		h    *Histogram
		q    float64
		want uint64
	}{
		{"median of 3", fill(10, 20, 30), 0.5, 20},
		{"p99 of 10", fill(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.99, 10},
		{"p99.9 of 100", fill(append(repeat(5, 99), 30)...), 0.999, 30},
		{"p50 of 2", fill(10, 20), 0.5, 10},
		// 0.07·100 is 7.000000000000001 in floating point: rank 7, not 8.
		{"product a hair above an integer", fill(append(repeat(1, 7), repeat(2, 93)...)...), 0.07, 1},
	} {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
}
