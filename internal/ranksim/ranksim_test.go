package ranksim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestFenwickBasics(t *testing.T) {
	f := NewFenwick(10)
	f.Add(3, 1)
	f.Add(7, 1)
	if f.PrefixSum(2) != 0 || f.PrefixSum(3) != 1 || f.PrefixSum(9) != 2 {
		t.Fatalf("prefix sums wrong: %d %d %d", f.PrefixSum(2), f.PrefixSum(3), f.PrefixSum(9))
	}
	if f.RankOf(7) != 1 || f.RankOf(8) != 2 || f.RankOf(0) != 0 {
		t.Fatal("RankOf wrong")
	}
	f.Add(3, -1)
	if f.RankOf(8) != 1 {
		t.Fatal("removal not reflected")
	}
}

func TestFenwickAgainstNaive(t *testing.T) {
	f := func(ops []int16) bool {
		const n = 256
		fw := NewFenwick(n)
		naive := make([]int, n)
		for _, op := range ops {
			i := int(uint16(op)) % n
			if op%2 == 0 {
				fw.Add(i, 1)
				naive[i]++
			} else {
				sum := 0
				for j := 0; j <= i; j++ {
					sum += naive[j]
				}
				if fw.PrefixSum(i) != sum {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPiUniform(t *testing.T) {
	pi := Pi(8, 0)
	for _, p := range pi {
		if p != 0.125 {
			t.Fatalf("uniform pi wrong: %v", pi)
		}
	}
	if err := validatePi(pi, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPiGammaBand(t *testing.T) {
	for _, gamma := range []float64{0.1, 0.25, 0.5} {
		for _, n := range []int{2, 7, 16, 33} {
			pi := Pi(n, gamma)
			if err := validatePi(pi, gamma); err != nil {
				t.Errorf("n=%d gamma=%v: %v", n, gamma, err)
			}
		}
	}
}

func TestPiPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Pi(0, 0) },
		func() { Pi(4, 0.7) },
		func() { Pi(4, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSampleCumDistribution(t *testing.T) {
	pi := []float64{0.5, 0.25, 0.25}
	cum := cumulative(pi)
	rng := xrand.New(5)
	counts := make([]int, 3)
	const draws = 60000
	for i := 0; i < draws; i++ {
		counts[sampleCum(cum, rng)]++
	}
	for i, p := range pi {
		got := float64(counts[i]) / draws
		if got < p-0.02 || got > p+0.02 {
			t.Errorf("bin %d frequency %v, want %v", i, got, p)
		}
	}
}

func TestDiscreteRemovesInOrderPerQueue(t *testing.T) {
	// Sanity: with 1 queue and no stealing the process is an exact
	// queue, so every removal has rank 0.
	res := RunDiscrete(DiscreteConfig{Queues: 1, Elements: 2000, Steps: 500, StealProb: 0, Batch: 1, Seed: 2})
	if res.MeanRemovedRank != 0 || res.MaxRemovedRank != 0 {
		t.Fatalf("single queue should be exact: %+v", res)
	}
}

func TestDiscreteRankScalesWithQueues(t *testing.T) {
	// Theorem 1: expected rank grows with n (O(n) for constant p_steal).
	mean := func(n int) float64 {
		res := RunDiscrete(DiscreteConfig{
			Queues: n, Elements: 200000, Steps: 40000, StealProb: 0.5, Batch: 1, Seed: 3,
		})
		return res.MeanRemovedRank
	}
	m8, m64 := mean(8), mean(64)
	if m64 < 3*m8 {
		t.Fatalf("rank should grow with queues: n=8 → %.1f, n=64 → %.1f", m8, m64)
	}
}

func TestDiscreteMoreStealingImprovesRank(t *testing.T) {
	mean := func(p float64) float64 {
		res := RunDiscrete(DiscreteConfig{
			Queues: 16, Elements: 200000, Steps: 40000, StealProb: p, Batch: 1, Seed: 4,
		})
		return res.MeanRemovedRank
	}
	low, high := mean(1.0/32), mean(0.5)
	if high >= low {
		t.Fatalf("more stealing should reduce rank: p=1/32 → %.1f, p=1/2 → %.1f", low, high)
	}
}

func TestDiscreteBatchingCostsRank(t *testing.T) {
	mean := func(b int) float64 {
		res := RunDiscrete(DiscreteConfig{
			Queues: 16, Elements: 400000, Steps: 40000 / b, StealProb: 0.25, Batch: b, Seed: 5,
		})
		return res.MeanRemovedRank
	}
	b1, b16 := mean(1), mean(16)
	if b16 < 2*b1 {
		t.Fatalf("batching should cost rank: B=1 → %.1f, B=16 → %.1f", b1, b16)
	}
}

func TestDiscreteGammaWithinTheorem(t *testing.T) {
	// With psteal large and gamma small per the theorem's condition, the
	// mean rank should stay within a constant factor of the bound.
	n := 16
	psteal := 0.5
	gamma := psteal / (4 * float64(n)) // satisfies γ(1/p−1) ≤ 1/(2n)
	res := RunDiscrete(DiscreteConfig{
		Queues: n, Elements: 200000, Steps: 40000, StealProb: psteal, Batch: 1, Gamma: gamma, Seed: 6,
	})
	bound := TheoremBound(n, 1, psteal, gamma)
	if res.MeanRemovedRank > bound {
		t.Fatalf("mean rank %.1f exceeds theorem bound %.1f", res.MeanRemovedRank, bound)
	}
	if res.MeanRemovedRank == 0 {
		t.Fatal("suspiciously exact process")
	}
}

func TestDiscreteSamplesRecorded(t *testing.T) {
	res := RunDiscrete(DiscreteConfig{Queues: 4, Elements: 20000, Steps: 4000, StealProb: 0.25, Seed: 7})
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for _, s := range res.Samples {
		if s.AvgTopRank < 0 || s.MaxTopRank < 0 {
			t.Fatalf("negative rank in sample %+v", s)
		}
		if float64(s.MaxTopRank) < s.AvgTopRank-1 {
			t.Fatalf("max < avg in sample %+v", s)
		}
	}
}

func TestContinuousSMQStationary(t *testing.T) {
	res := RunContinuousSMQ(ContinuousConfig{Bins: 16, Steps: 60000, StealProb: 0.5, Seed: 8})
	if res.MeanTopAvg <= 0 {
		t.Fatalf("mean top rank %.2f should be positive", res.MeanTopAvg)
	}
	if res.MeanTopMax < res.MeanTopAvg {
		t.Fatalf("max %.1f < avg %.1f", res.MeanTopMax, res.MeanTopAvg)
	}
	// Stationarity: the second half should not blow up; compare first vs
	// last sample loosely.
	first := res.Samples[len(res.Samples)/2]
	last := res.Samples[len(res.Samples)-1]
	if float64(last.MaxTopRank) > 50*float64(first.MaxTopRank+10) {
		t.Fatalf("rank diverging: %+v -> %+v", first, last)
	}
}

func TestContinuousSMQTracksOnePlusBeta(t *testing.T) {
	// The proof couples SMQ with β = p_steal/(2(1+γ)); the SMQ process
	// should have rank statistics within a small factor of that (1+β)
	// process (it is stochastically dominated by it in the proof).
	psteal := 0.5
	smq := RunContinuousSMQ(ContinuousConfig{Bins: 16, Steps: 80000, StealProb: psteal, Seed: 9})
	beta := RunOnePlusBeta(ContinuousConfig{Bins: 16, Steps: 80000, Beta: psteal / 2, Seed: 9})
	if smq.MeanTopAvg > 4*beta.MeanTopAvg+10 {
		t.Fatalf("SMQ (%.1f) should not be far above its (1+β) coupling (%.1f)",
			smq.MeanTopAvg, beta.MeanTopAvg)
	}
}

func TestOnePlusBetaImprovesWithBeta(t *testing.T) {
	weak := RunOnePlusBeta(ContinuousConfig{Bins: 32, Steps: 60000, Beta: 0.1, Seed: 10})
	strong := RunOnePlusBeta(ContinuousConfig{Bins: 32, Steps: 60000, Beta: 0.9, Seed: 10})
	if strong.MeanTopAvg >= weak.MeanTopAvg {
		t.Fatalf("larger beta should improve rank: β=0.1 → %.1f, β=0.9 → %.1f",
			weak.MeanTopAvg, strong.MeanTopAvg)
	}
}

func TestTheoremBoundShape(t *testing.T) {
	// The bound must grow with n and B and shrink with p_steal.
	if TheoremBound(32, 1, 0.5, 0) <= TheoremBound(16, 1, 0.5, 0) {
		t.Error("bound not increasing in n")
	}
	if TheoremBound(16, 4, 0.5, 0) <= TheoremBound(16, 1, 0.5, 0) {
		t.Error("bound not increasing in B")
	}
	if TheoremBound(16, 1, 0.125, 0) <= TheoremBound(16, 1, 0.5, 0) {
		t.Error("bound not decreasing in p_steal")
	}
}

func BenchmarkDiscreteStep(b *testing.B) {
	cfg := DiscreteConfig{Queues: 64, Elements: 1 << 20, Steps: b.N, StealProb: 0.25, Batch: 4, Seed: 1}
	b.ResetTimer()
	RunDiscrete(cfg)
}

func BenchmarkContinuousStep(b *testing.B) {
	cfg := ContinuousConfig{Bins: 64, Steps: b.N, StealProb: 0.25, Batch: 4, Seed: 1}
	b.ResetTimer()
	RunContinuousSMQ(cfg)
}

// validatePi checks the model bound 1−γ ≤ 1/(π_i n) ≤ 1+γ.
func validatePi(pi []float64, gamma float64) error {
	n := float64(len(pi))
	sum := 0.0
	for i, p := range pi {
		inv := 1 / (p * n)
		const slack = 1e-9
		if inv < 1-gamma-slack || inv > 1+gamma+slack {
			return fmt.Errorf("ranksim: pi[%d]=%g violates band for gamma=%g (1/(pi*n)=%g)", i, p, gamma, inv)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ranksim: pi sums to %g", sum)
	}
	return nil
}
