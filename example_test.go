package smq_test

import (
	"fmt"
	"sort"

	smq "repro"
)

// A single worker using the Stealing Multi-Queue as a priority queue.
// With one worker there is nobody to steal from and nothing is published
// for thieves, so it is an exact queue; with more, the order relaxes but
// the multiset popped is always exactly the multiset pushed.
func ExampleNewStealingMQ() {
	s := smq.NewStealingMQ[string](smq.SMQConfig{Workers: 1})
	w := s.Worker(0)
	w.Push(30, "low")
	w.Push(10, "high")
	w.Push(20, "mid")

	var got []uint64
	for {
		p, _, ok := w.Pop()
		if !ok {
			break
		}
		got = append(got, p)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	fmt.Println(got)
	// Output: [10 20 30]
}

// Shortest paths over the SMQ match Dijkstra exactly: relaxation affects
// only how much work is wasted, never the result.
func ExampleSSSP() {
	g, _ := smq.BuildGraph(3, []smq.GraphEdge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 0, V: 2, W: 7}, // the direct road loses to the detour
	}, nil)
	s := smq.NewStealingMQ[uint32](smq.SMQConfig{Workers: 2})
	dist, _ := smq.SSSP(g, 0, s)
	fmt.Println(dist)
	// Output: [0 1 3]
}

// The rank model validates Theorem 1: with constant stealing probability
// the mean removed rank stays within the theorem's O(n/p·log(1/p)) bound.
func ExampleRunRankModel() {
	res := smq.RunRankModel(smq.RankModelConfig{
		Queues:    16,
		Elements:  100000,
		StealProb: 0.25,
		Seed:      1,
	})
	bound := smq.RankTheoremBound(16, 1, 0.25, 0)
	fmt.Println("within bound:", res.MeanRemovedRank < bound)
	// Output: within bound: true
}

// The classic Multi-Queue (Listing 1 of the paper) through the same API.
func ExampleNewClassicMultiQueue() {
	s := smq.NewClassicMultiQueue[int](1, 4)
	w := s.Worker(0)
	for i := 5; i >= 1; i-- {
		w.Push(uint64(i), i)
	}
	sum := 0
	for {
		_, v, ok := w.Pop()
		if !ok {
			break
		}
		sum += v
	}
	fmt.Println(sum)
	// Output: 15
}
