// Package ranksim implements the analytical model of §3: the simplified
// sequential SMQ process of Listing 3, the continuous balls-into-bins
// coupling of the proof (Appendix A), and the classic (1+β)-choice
// process of Peres, Talwar and Wieder used as the comparison yardstick.
//
// These simulators validate Theorem 1 empirically: for the SMQ process
// with n queues, batch size B, stealing probability p_steal and scheduler
// unfairness γ (with γ(1/p_steal − 1) ≤ 1/(2n)), the expected rank of
// removed elements is O(nB(1+γ)/p_steal · log((1+γ)/p_steal)), uniformly
// over time. The `theory` experiment (`smqbench -exp theory`) prints the
// measured rank curves next to the theorem's scaling.
package ranksim

import (
	"repro/internal/xrand"
)

// Pi builds a scheduling distribution over n threads with unfairness γ:
// half the threads receive the minimum allowed probability
// 1/(n(1+γ)) and the other half the complementary value, so that
// 1−γ ≤ 1/(π_i·n) ≤ 1+γ holds for every i (the model's assumption).
// γ = 0 yields the uniform distribution.
func Pi(n int, gamma float64) []float64 {
	if n <= 0 {
		panic("ranksim: need at least one thread")
	}
	if gamma < 0 || gamma > 0.5 {
		panic("ranksim: gamma must be in [0, 1/2]")
	}
	pi := make([]float64, n)
	if gamma == 0 || n == 1 {
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
		return pi
	}
	lo := 1 / (float64(n) * (1 + gamma))
	half := n / 2
	rest := n - half
	// Remaining mass spread over the other threads; stays within the
	// allowed band because (1+2γ)/(1+γ) ≤ 1/(1−γ) for γ ≥ 0.
	hi := (1 - float64(half)*lo) / float64(rest)
	for i := 0; i < half; i++ {
		pi[i] = lo
	}
	for i := half; i < n; i++ {
		pi[i] = hi
	}
	return pi
}

// DiscreteConfig parameterizes the Listing 3 process.
type DiscreteConfig struct {
	Queues    int     // n
	Elements  int     // T: initial insertions, in increasing rank order
	Steps     int     // removal steps; capped so queues stay non-empty
	StealProb float64 // p_steal
	Batch     int     // B: extractTopB size
	Gamma     float64 // scheduler unfairness γ
	Seed      uint64
	// SampleEvery sets how often top-rank statistics are recorded;
	// default max(1, Steps/64).
	SampleEvery int
}

func (c *DiscreteConfig) normalize() {
	if c.Queues <= 0 {
		panic("ranksim: Queues must be positive")
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Elements <= 0 {
		c.Elements = 100000
	}
	maxSteps := c.Elements / (2 * c.Batch)
	if c.Steps <= 0 || c.Steps > maxSteps {
		c.Steps = maxSteps
	}
	if c.StealProb < 0 {
		c.StealProb = 0
	}
	if c.StealProb > 1 {
		c.StealProb = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = c.Steps/64 + 1
	}
}

// Sample is one time point of rank statistics over the queue tops.
type Sample struct {
	Step       int
	AvgTopRank float64 // mean rank over the Bn top elements
	MaxTopRank int     // max rank among the top elements
}

// Result aggregates a simulation run.
type Result struct {
	Samples []Sample
	// MeanRemovedRank is the average rank (among all remaining elements)
	// of every element removed during the run — the paper's "rank cost".
	MeanRemovedRank float64
	// MaxRemovedRank is the worst single removal.
	MaxRemovedRank int
	// Removed counts removed elements.
	Removed int
}

// RunDiscrete simulates the sequential SMQ process of Listing 3 and
// §3's analytical model: T ranked elements inserted up front (queue
// chosen i.i.d. from π per element), then Steps removal operations, each
// picking a thread from π and stealing with probability p_steal.
func RunDiscrete(cfg DiscreteConfig) Result {
	cfg.normalize()
	rng := xrand.New(cfg.Seed)
	pi := Pi(cfg.Queues, cfg.Gamma)
	cum := cumulative(pi)

	// queues[i] holds ascending element values; head indexes the top.
	queues := make([][]int32, cfg.Queues)
	heads := make([]int, cfg.Queues)
	for t := 0; t < cfg.Elements; t++ {
		i := sampleCum(cum, rng)
		queues[i] = append(queues[i], int32(t))
	}
	present := NewFenwick(cfg.Elements)
	for t := 0; t < cfg.Elements; t++ {
		present.Add(t, 1)
	}

	top := func(i int) int {
		if heads[i] >= len(queues[i]) {
			return cfg.Elements // +inf sentinel
		}
		return int(queues[i][heads[i]])
	}

	res := Result{}
	sumRemoved := 0.0
	for step := 0; step < cfg.Steps; step++ {
		i := sampleCum(cum, rng)
		src := i
		if cfg.StealProb > 0 && rng.Bernoulli(cfg.StealProb) {
			j := rng.Intn(cfg.Queues)
			if top(j) < top(i) {
				src = j
			}
		}
		if top(src) == cfg.Elements {
			// Model assumes non-empty queues; with the step cap this is
			// rare. Fall back to any non-empty queue.
			src = -1
			for k := 0; k < cfg.Queues; k++ {
				if top(k) < cfg.Elements {
					src = k
					break
				}
			}
			if src < 0 {
				break
			}
		}
		for b := 0; b < cfg.Batch && top(src) < cfg.Elements; b++ {
			v := top(src)
			rank := present.RankOf(v)
			sumRemoved += float64(rank)
			if rank > res.MaxRemovedRank {
				res.MaxRemovedRank = rank
			}
			present.Add(v, -1)
			heads[src]++
			res.Removed++
		}
		if step%cfg.SampleEvery == 0 {
			res.Samples = append(res.Samples, sampleTops(cfg, queues, heads, present, step))
		}
	}
	if res.Removed > 0 {
		res.MeanRemovedRank = sumRemoved / float64(res.Removed)
	}
	return res
}

// sampleTops measures the rank of the top B elements of each queue.
func sampleTops(cfg DiscreteConfig, queues [][]int32, heads []int, present *Fenwick, step int) Sample {
	s := Sample{Step: step}
	count := 0
	sum := 0.0
	for i := range queues {
		for b := 0; b < cfg.Batch; b++ {
			idx := heads[i] + b
			if idx >= len(queues[i]) {
				break
			}
			r := present.RankOf(int(queues[i][idx]))
			sum += float64(r)
			if r > s.MaxTopRank {
				s.MaxTopRank = r
			}
			count++
		}
	}
	if count > 0 {
		s.AvgTopRank = sum / float64(count)
	}
	return s
}

func cumulative(pi []float64) []float64 {
	cum := make([]float64, len(pi))
	total := 0.0
	for i, p := range pi {
		total += p
		cum[i] = total
	}
	cum[len(cum)-1] = 1 // guard against rounding
	return cum
}

func sampleCum(cum []float64, rng *xrand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
