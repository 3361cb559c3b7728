package xrand

import "math"

// mathLog is math.Log, isolated so xrand.go stays free of direct imports
// in its hot-path file.
func mathLog(x float64) float64 { return math.Log(x) }

// Threshold returns the integer form of a Bernoulli(p) coin: Float64()
// is k·2^-53 on the 53-bit draw k = Uint64()>>11, scaling by 2^53 is
// exact, and k is an integer, so Float64() < p holds exactly when
// k < ⌈p·2^53⌉. It is 0 for !(p > 0), NaN included, and 2^53 for p ≥ 1.
// A caller that tosses one coin many times computes it once.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}
