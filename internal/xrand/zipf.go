package xrand

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks 0..n-1 with the Zipf(θ) mass function
//
//	P(k) = (k+1)^(-θ) / H_{n,θ},   H_{n,θ} = Σ_{i=1..n} i^(-θ),
//
// the canonical skewed-popularity model for multi-tenant traffic and hot
// keys (YCSB's "zipfian" request distribution uses θ ≈ 0.99). Rank 0 is
// the most popular.
//
// Sampling inverts the exact cumulative distribution with a binary
// search over a precomputed table, so the empirical frequencies match
// the analytic mass function to within pure sampling noise — unlike the
// Gray et al. approximation used when n is huge — at O(log n) per
// sample and zero allocation after construction. The intended domain is
// tenants or key-space buckets (n up to a few million); the table costs
// 8 bytes per rank.
//
// A Zipf is immutable after construction and therefore safe to share
// between goroutines; each caller supplies its own *Rand.
type Zipf struct {
	cdf []float64 // cdf[k] = P(rank <= k); cdf[n-1] == 1
}

// NewZipf builds a sampler over n ranks with skew theta. It panics if
// n <= 0 or theta < 0 (theta == 0 is the uniform distribution; theta
// may exceed 1, unlike rejection-inversion samplers).
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: NewZipf with n = %d", n))
	}
	if theta < 0 || math.IsNaN(theta) {
		panic(fmt.Sprintf("xrand: NewZipf with theta = %v", theta))
	}
	z := &Zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -theta)
		z.cdf[k] = sum
	}
	inv := 1 / sum
	for k := range z.cdf {
		z.cdf[k] *= inv
	}
	z.cdf[n-1] = 1 // exact, regardless of rounding
	return z
}

// Sample draws one rank using r.
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	// First rank whose cumulative probability exceeds u. The head ranks
	// carry most of the mass under skew, so probe rank 0 before the
	// general search (≈48% of draws at θ=0.99, n=4 return immediately).
	if u < z.cdf[0] {
		return 0
	}
	return sort.SearchFloat64s(z.cdf, u)
}

// BoundedPareto samples service costs from the bounded Pareto
// distribution on [L, H] with tail index α:
//
//	P(X > x) = (L^α x^(-α) - (L/H)^α) / (1 - (L/H)^α),  L <= x <= H.
//
// Heavy-tailed-but-bounded service times are the standard M/G/1-style
// model for request cost skew (most requests cheap, rare requests up to
// H times the floor); the bound keeps a single sample from stalling a
// worker indefinitely. Sampling is exact inverse-CDF: one uniform draw,
// one Pow.
//
// A BoundedPareto is immutable after construction and safe to share;
// each caller supplies its own *Rand.
type BoundedPareto struct {
	l, h, alpha float64
	la, ratio   float64 // L^α and (L/H)^α, precomputed
}

// NewBoundedPareto builds a sampler on [l, h] with tail index alpha.
// It panics unless 0 < l <= h and alpha > 0.
func NewBoundedPareto(l, h, alpha float64) *BoundedPareto {
	if !(l > 0) || !(h >= l) || !(alpha > 0) {
		panic(fmt.Sprintf("xrand: NewBoundedPareto(%v, %v, %v): need 0 < l <= h, alpha > 0", l, h, alpha))
	}
	return &BoundedPareto{
		l: l, h: h, alpha: alpha,
		la:    math.Pow(l, alpha),
		ratio: math.Pow(l/h, alpha),
	}
}

// Sample draws one cost in [L, H] using r.
func (p *BoundedPareto) Sample(r *Rand) float64 {
	if p.l == p.h {
		return p.l
	}
	u := r.Float64()
	// Invert the CDF F(x) = (1 - L^α x^(-α)) / (1 - (L/H)^α):
	// x = (L^α / (1 - u(1 - (L/H)^α)))^(1/α).
	x := math.Pow(p.la/(1-u*(1-p.ratio)), 1/p.alpha)
	// Clamp rounding spill at the endpoints.
	if x < p.l {
		return p.l
	}
	if x > p.h {
		return p.h
	}
	return x
}
