package main

import (
	"math"
	"sort"
)

// summary describes one timing's repetitions.
type summary struct {
	median, q1, q3, min, max float64
	n                        int
}

// summarize takes quartiles by linear interpolation between order
// statistics. An empty sample summarizes to zeros.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return summary{median: at(0.5), q1: at(0.25), q3: at(0.75), min: s[0], max: s[len(s)-1], n: len(s)}
}

// iqrFrac is the interquartile range as a share of the median.
func (s summary) iqrFrac() float64 { return ratio(s.q3-s.q1, s.median) }

// ratio is a / b, and zero when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
