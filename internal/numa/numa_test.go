package numa

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestTopologyBasics(t *testing.T) {
	top := New(8, 2, 4)
	if top.NumQueues() != 32 {
		t.Fatalf("NumQueues = %d", top.NumQueues())
	}
	// Workers 0-3 on node 0, 4-7 on node 1.
	for w := 0; w < 4; w++ {
		if top.NodeOfWorker(w) != 0 {
			t.Errorf("worker %d on node %d, want 0", w, top.NodeOfWorker(w))
		}
	}
	for w := 4; w < 8; w++ {
		if top.NodeOfWorker(w) != 1 {
			t.Errorf("worker %d on node %d, want 1", w, top.NodeOfWorker(w))
		}
	}
	lo, hi := top.QueueRangeOfNode(0)
	if lo != 0 || hi != 16 {
		t.Errorf("node 0 queues [%d,%d), want [0,16)", lo, hi)
	}
	lo, hi = top.QueueRangeOfNode(1)
	if lo != 16 || hi != 32 {
		t.Errorf("node 1 queues [%d,%d), want [16,32)", lo, hi)
	}
}

func TestTopologyClamping(t *testing.T) {
	top := New(2, 16, 1) // more nodes than workers
	if top.Nodes != 2 {
		t.Fatalf("Nodes = %d, want clamped to 2", top.Nodes)
	}
	top = New(4, 0, 1)
	if top.Nodes != 1 {
		t.Fatalf("Nodes = %d, want clamped to 1", top.Nodes)
	}
}

func TestTopologyPartitionProperty(t *testing.T) {
	// Property: node queue ranges partition [0, m) and agree with
	// NodeOfQueue, for arbitrary topologies.
	f := func(w, n, c uint8) bool {
		workers := int(w%16) + 1
		nodes := int(n%8) + 1
		qpw := int(c%4) + 1
		top := New(workers, nodes, qpw)
		covered := 0
		for j := 0; j < top.Nodes; j++ {
			lo, hi := top.QueueRangeOfNode(j)
			if lo != covered {
				return false
			}
			for q := lo; q < hi; q++ {
				if top.NodeOfQueue(q) != j {
					return false
				}
			}
			covered = hi
		}
		return covered == top.NumQueues()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerUniformSingleNode(t *testing.T) {
	top := New(4, 1, 2)
	s := NewSampler(top, 0, 8, xrand.New(1))
	const draws = 80000
	counts := make([]int, top.NumQueues())
	for i := 0; i < draws; i++ {
		counts[s.Sample()]++
	}
	want := float64(draws) / float64(top.NumQueues())
	for q, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("queue %d: %d draws, want ~%.0f", q, c, want)
		}
	}
	if s.Remote != 0 {
		t.Errorf("single node reported %d remote samples", s.Remote)
	}
}

func TestSamplerWeighted(t *testing.T) {
	// 2 nodes, 8 workers, C=1, K=8: own node has 4 queues weight 1,
	// remote 4 queues weight 1/8 → P(own) = 4 / (4 + 0.5) = 8/9.
	top := New(8, 2, 1)
	s := NewSampler(top, 0, 8, xrand.New(2))
	const draws = 200000
	own := 0
	for i := 0; i < draws; i++ {
		q := s.Sample()
		if q < 4 {
			own++
		}
	}
	got := float64(own) / draws
	want := 8.0 / 9.0
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(own) = %v, want %v", got, want)
	}
	if s.Remote != uint64(draws-own) {
		t.Errorf("Remote = %d, want %d", s.Remote, draws-own)
	}
}

func TestSamplerRemoteUniformAmongRemotes(t *testing.T) {
	top := New(8, 2, 1)
	s := NewSampler(top, 6, 4, xrand.New(3)) // worker 6 is on node 1: own queues 4..7
	counts := make([]int, 8)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Sample()]++
	}
	// Remote queues 0..3 should each get ~equal share.
	remoteTotal := counts[0] + counts[1] + counts[2] + counts[3]
	for q := 0; q < 4; q++ {
		got := float64(counts[q])
		want := float64(remoteTotal) / 4
		if math.Abs(got-want) > 6*math.Sqrt(want+1) {
			t.Errorf("remote queue %d: %v draws, want ~%v", q, got, want)
		}
	}
	// Own queues should dominate: with K=4, P(own)=4/(4+1)=0.8.
	got := 1 - float64(remoteTotal)/draws
	if math.Abs(got-0.8) > 0.01 {
		t.Errorf("P(own) = %v, want 0.8", got)
	}
}

func TestSampleOther(t *testing.T) {
	top := New(2, 1, 1)
	s := NewSampler(top, 0, 1, xrand.New(4))
	for i := 0; i < 1000; i++ {
		if q := s.SampleOther(0); q != 1 {
			t.Fatalf("SampleOther(0) = %d with m=2", q)
		}
	}
	// With one queue per node, avoiding the own queue leaves the remote
	// queues, uniformly, whatever K: also where K is so large that an
	// own-node draw is certain.
	top = New(4, 4, 1)
	for _, k := range []float64{8, 1e17} {
		s := NewSampler(top, 1, k, xrand.New(5))
		const draws = 30000
		counts := make([]int, top.NumQueues())
		for i := 0; i < draws; i++ {
			counts[s.SampleOther(1)]++
		}
		want := float64(draws) / 3
		for q, c := range counts {
			if q == 1 && c != 0 || q != 1 && math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
				t.Errorf("K=%g: queue %d drawn %d times, want ~%.0f (0 for the avoided queue)", k, q, c, want)
			}
		}
		if s.Remote != draws {
			t.Errorf("K=%g: Remote %d, want %d (every draw)", k, s.Remote, draws)
		}
	}
}

func TestSamplerKLessOrEqualOneIsUniform(t *testing.T) {
	top := New(8, 2, 1)
	s := NewSampler(top, 0, 1, xrand.New(5))
	if !s.uniform {
		t.Fatal("K=1 sampler should be uniform")
	}
	const draws = 100000
	remote := 0
	for i := 0; i < draws; i++ {
		if q := s.Sample(); q >= 4 {
			remote++
		}
	}
	got := float64(remote) / draws
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("uniform sampler remote fraction = %v, want 0.5", got)
	}
	if s.Remote != uint64(remote) {
		t.Errorf("Remote counter = %d, want %d", s.Remote, remote)
	}
}

func TestInternalAccessRatioMatchesPaperFormula(t *testing.T) {
	// Paper §4: for K ≫ N, E_int/T ≈ 1 − 1/K. Verify empirically that
	// the per-worker own-node probability is ≈ 1 − 1/K for equal nodes.
	const workers, nodes = 16, 2
	k := 64.0
	top := New(workers, nodes, 2)
	const perWorker = 20000
	var ownTotal, draws float64
	for w := 0; w < workers; w++ {
		s := NewSampler(top, w, k, xrand.New(uint64(w)))
		for i := 0; i < perWorker; i++ {
			s.Sample()
		}
		ownTotal += float64(perWorker - s.Remote)
		draws += perWorker
	}
	got := ownTotal / draws
	// Exact: own/(own + remote/K) with own=m/N, remote=m−m/N:
	own := float64(top.NumQueues()) / nodes
	remote := float64(top.NumQueues()) - own
	want := own / (own + remote/k)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("internal ratio = %v, want %v", got, want)
	}
	// And the paper's K≫N approximation should be close.
	approx := 1 - 1/k
	if math.Abs(want-approx) > 0.01 {
		t.Errorf("exact %v vs paper approx %v differ too much", want, approx)
	}
}
