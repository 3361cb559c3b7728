package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		t.Fatal("zero seed produced all-zero state")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded stream has too many repeats: %d distinct", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(23)
	const draws = 200000
	for _, p := range []float64{0.125, 0.5, 0.9} {
		hits := 0
		for i := 0; i < draws; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / draws
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v): observed %v", p, got)
		}
	}
}

// TestFlipIsBernoulli checks the integer coin against the float one:
// two generators from one seed, one flipping (comparing a draw with
// Threshold(p) when 0 < Threshold(p) < 2^53) and the other calling
// Bernoulli(p), agree on every outcome and end in the same state, so the
// flip draws exactly when Bernoulli does.
func TestFlipIsBernoulli(t *testing.T) {
	const draws = 1_000_000
	flip := func(r *Rand, th uint64) bool {
		switch {
		case th == 0:
			return false
		case th >= 1<<53:
			return true
		}
		return r.Uint64()>>11 < th
	}
	for _, p := range []float64{1.0 / 8, 1.0 / 32, 0.3, 0x1p-53, 1 - 0x1p-53, 0, 1, -0.5, 1.5} {
		a, b := New(31), New(31)
		th := Threshold(p)
		for i := 0; i < draws; i++ {
			if got, want := flip(a, th), b.Bernoulli(p); got != want {
				t.Fatalf("p=%v draw %d: flip %v, Bernoulli %v", p, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("p=%v: flip and Bernoulli consumed different draws", p)
		}
	}
	if got := Threshold(0x1p-53); got != 1 {
		t.Errorf("Threshold(2^-53) = %d, want 1", got)
	}
	if got := Threshold(1 - 0x1p-53); got != 1<<53-1 {
		t.Errorf("Threshold(1-2^-53) = %d, want 2^53-1", got)
	}
}

func TestOneIn(t *testing.T) {
	r := New(29)
	const draws = 400000
	for _, n := range []int{1, 2, 8, 10, 100} {
		hits := 0
		for i := 0; i < draws; i++ {
			if r.OneIn(n) {
				hits++
			}
		}
		got := float64(hits) / draws
		want := 1.0 / float64(n)
		if math.Abs(got-want) > 0.01+want*0.1 {
			t.Errorf("OneIn(%d): observed %v want %v", n, got, want)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(37)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1.0) > 0.02 {
		t.Errorf("ExpFloat64 mean = %v, want ~1.0", mean)
	}
}

func TestIntnProperty(t *testing.T) {
	// Property: for random seeds and bounds, Intn stays in range.
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1024)
	}
	_ = sink
}
