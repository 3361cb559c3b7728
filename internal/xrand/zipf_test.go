package xrand

import (
	"math"
	"testing"
)

// TestZipfPMFIsADistribution checks the analytic mass function sums to
// one and the CDF table is monotone with an exact 1.0 tail.
func TestZipfPMFIsADistribution(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.99, 1, 1.5} {
		z := NewZipf(100, theta)
		sum := 0.0
		for k := 0; k < len(z.cdf); k++ {
			p := pmf(z, k)
			if p <= 0 {
				t.Fatalf("theta=%v: PMF(%d) = %v, want > 0", theta, k, p)
			}
			if k > 0 && pmf(z, k) > pmf(z, k-1)+1e-15 {
				t.Fatalf("theta=%v: PMF not non-increasing at %d", theta, k)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("theta=%v: PMF sums to %v", theta, sum)
		}
		if got := z.cdf[len(z.cdf)-1]; got != 1 {
			t.Fatalf("theta=%v: cdf tail = %v, want exactly 1", theta, got)
		}
	}
}

// TestZipfEmpiricalMatchesPMF is the satellite's statistical test: a
// large sample's empirical frequencies must match the analytic mass
// function to within binomial sampling noise. The sampler is exact
// inverse-CDF, so a tight per-rank z-bound holds; the seed is fixed, so
// the test is deterministic.
func TestZipfEmpiricalMatchesPMF(t *testing.T) {
	const (
		n       = 64
		samples = 2_000_000
		sigmas  = 6.0
	)
	for _, theta := range []float64{0.6, 0.99, 1.2} {
		z := NewZipf(n, theta)
		r := New(0xfeed + uint64(theta*1000))
		var counts [n]uint64
		for i := 0; i < samples; i++ {
			counts[z.Sample(r)]++
		}
		for k := 0; k < n; k++ {
			p := pmf(z, k)
			exp := p * samples
			if exp < 50 {
				continue // too rare for a z-test; covered by the total below
			}
			sd := math.Sqrt(exp * (1 - p))
			if diff := math.Abs(float64(counts[k]) - exp); diff > sigmas*sd {
				t.Errorf("theta=%v rank %d: observed %d, expected %.0f ± %.0f (%.1fσ)",
					theta, k, counts[k], exp, sd, diff/sd)
			}
		}
		var total uint64
		for _, c := range counts {
			total += c
		}
		if total != samples {
			t.Fatalf("theta=%v: lost samples: %d of %d", theta, total, samples)
		}
	}
}

// TestZipfUniformAtThetaZero checks the θ=0 degenerate case really is
// uniform (every rank within 6σ of samples/n).
func TestZipfUniformAtThetaZero(t *testing.T) {
	const n, samples = 16, 1_000_000
	z := NewZipf(n, 0)
	r := New(42)
	var counts [n]uint64
	for i := 0; i < samples; i++ {
		counts[z.Sample(r)]++
	}
	exp := float64(samples) / n
	sd := math.Sqrt(exp * (1 - 1.0/n))
	for k, c := range counts {
		if math.Abs(float64(c)-exp) > 6*sd {
			t.Errorf("rank %d: observed %d, expected %.0f ± %.0f", k, c, exp, sd)
		}
	}
}

// TestBoundedParetoRangeAndMean checks every sample lands in [L, H] and
// the empirical mean converges to the analytic mean.
func TestBoundedParetoRangeAndMean(t *testing.T) {
	cases := []struct{ l, h, alpha float64 }{
		{1, 1000, 1.5},
		{50, 5000, 1.1},
		{10, 10, 2}, // degenerate point mass
		{1, 100, 1}, // α = 1 special-cased mean
	}
	for _, c := range cases {
		p := NewBoundedPareto(c.l, c.h, c.alpha)
		r := New(7)
		const samples = 500_000
		sum := 0.0
		for i := 0; i < samples; i++ {
			x := p.Sample(r)
			if x < c.l || x > c.h {
				t.Fatalf("[%v,%v] α=%v: sample %v out of range", c.l, c.h, c.alpha, x)
			}
			sum += x
		}
		mean := sum / samples
		want := paretoMean(p)
		// The sample mean of a heavy-tailed bounded variable converges
		// slowly; 5% relative tolerance at 500k samples is comfortable
		// for α >= 1 with H/L <= 100x of the mean.
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("[%v,%v] α=%v: empirical mean %.3f, analytic %.3f", c.l, c.h, c.alpha, mean, want)
		}
	}
}

// TestBoundedParetoTail checks the empirical complementary CDF at a few
// interior points against the analytic form — the tail shape is the
// whole point of using a Pareto cost model.
func TestBoundedParetoTail(t *testing.T) {
	const l, h, alpha = 1.0, 1000.0, 1.5
	p := NewBoundedPareto(l, h, alpha)
	r := New(99)
	const samples = 1_000_000
	probes := []float64{2, 10, 100}
	counts := make([]int, len(probes))
	for i := 0; i < samples; i++ {
		x := p.Sample(r)
		for j, q := range probes {
			if x > q {
				counts[j]++
			}
		}
	}
	la, ratio := math.Pow(l, alpha), math.Pow(l/h, alpha)
	for j, q := range probes {
		want := (la*math.Pow(q, -alpha) - ratio) / (1 - ratio)
		got := float64(counts[j]) / samples
		sd := math.Sqrt(want * (1 - want) / samples)
		if math.Abs(got-want) > 6*sd+1e-6 {
			t.Errorf("P(X > %v): observed %.5f, analytic %.5f (±%.5f)", q, got, want, sd)
		}
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(64, 0.99)
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += z.Sample(r)
	}
	_ = sink
}

func BenchmarkBoundedParetoSample(b *testing.B) {
	p := NewBoundedPareto(50, 5000, 1.5)
	r := New(1)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += p.Sample(r)
	}
	_ = sink
}

// pmf returns the analytic probability of rank k, the reference the
// statistical tests compare empirical frequencies to.
func pmf(z *Zipf, k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// paretoMean returns the analytic mean of p.
func paretoMean(p *BoundedPareto) float64 {
	if p.l == p.h {
		return p.l
	}
	if p.alpha == 1 {
		return p.l * math.Log(p.h/p.l) / (1 - p.l/p.h)
	}
	a := p.alpha
	num := p.la * a / (a - 1) * (math.Pow(p.l, 1-a) - math.Pow(p.h, 1-a))
	return num / (1 - p.ratio)
}
