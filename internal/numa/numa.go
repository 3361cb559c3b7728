// Package numa implements the paper's NUMA-aware weighted queue sampling
// (§4, "NUMA-Awareness") over a virtual node topology.
//
// The paper assigns each of N NUMA nodes T_i threads and gives a thread's
// own-node queues weight 1 while all remote queues get weight 1/K, K > 1.
// Larger K keeps more traffic node-local at the cost of global fairness;
// the expected fraction of node-internal accesses is E_int ≈ T·(1 − 1/K)
// when K > N.
//
// Real NUMA hardware is not required (and not assumed): this package
// reproduces the sampling distribution and counts remote accesses, which
// is the algorithmically relevant part of the mechanism. Workers are
// striped over nodes in contiguous blocks, and each worker's C queues
// inherit its node, so every node owns a contiguous block of queue
// indices — which makes weighted sampling a constant-time operation.
package numa

import "repro/internal/xrand"

// Topology describes a virtual machine layout: Workers worker slots
// striped over Nodes virtual NUMA nodes, with QueuesPerWorker queues each
// (the Multi-Queue's C constant; 1 for the SMQ).
type Topology struct {
	Workers         int
	Nodes           int
	QueuesPerWorker int

	// nodeQueueLo[j], nodeQueueHi[j] bound node j's queue block.
	nodeQueueLo []int
	nodeQueueHi []int
}

// New validates and precomputes a topology. Nodes is clamped to
// [1, Workers] so every node has at least one worker.
func New(workers, nodes, queuesPerWorker int) Topology {
	if workers < 1 {
		panic("numa: need at least one worker")
	}
	if queuesPerWorker < 1 {
		panic("numa: need at least one queue per worker")
	}
	if nodes < 1 {
		nodes = 1
	}
	if nodes > workers {
		nodes = workers
	}
	t := Topology{Workers: workers, Nodes: nodes, QueuesPerWorker: queuesPerWorker}
	t.nodeQueueLo = make([]int, nodes)
	t.nodeQueueHi = make([]int, nodes)
	for j := 0; j < nodes; j++ {
		t.nodeQueueLo[j] = t.firstWorkerOfNode(j) * queuesPerWorker
		t.nodeQueueHi[j] = t.firstWorkerOfNode(j+1) * queuesPerWorker
	}
	return t
}

// firstWorkerOfNode returns the first worker index of node j (or Workers
// for j == Nodes). Workers are striped in contiguous, near-equal blocks;
// this is the ceiling inverse of NodeOfWorker: worker w is on node j iff
// floor(w·Nodes/Workers) == j, so node j starts at ceil(j·Workers/Nodes).
func (t Topology) firstWorkerOfNode(j int) int {
	return (j*t.Workers + t.Nodes - 1) / t.Nodes
}

// NumQueues reports the total queue count m = Workers · QueuesPerWorker.
func (t Topology) NumQueues() int { return t.Workers * t.QueuesPerWorker }

// NodeOfWorker maps worker w to its virtual node.
func (t Topology) NodeOfWorker(w int) int {
	return w * t.Nodes / t.Workers
}

// QueueRangeOfNode returns the half-open queue index range owned by node j.
func (t Topology) QueueRangeOfNode(j int) (lo, hi int) {
	return t.nodeQueueLo[j], t.nodeQueueHi[j]
}

// Sampler draws queue indices for one worker under the weighted NUMA
// distribution. It is owned by a single goroutine.
type Sampler struct {
	m       int // total queues
	ownLo   int
	ownHi   int
	pOwn    float64 // probability of sampling an own-node queue
	uniform bool    // true when the distribution degenerates to uniform
	rng     *xrand.Rand

	// Remote counts samples that landed on another node.
	Remote uint64
}

// NewSampler builds the sampler for the given worker. K is the remote
// weight divisor (remote queues get weight 1/K); K <= 1 or a single node
// yields the uniform distribution of the non-NUMA-aware algorithms.
func NewSampler(t Topology, worker int, k float64, rng *xrand.Rand) *Sampler {
	m := t.NumQueues()
	s := &Sampler{m: m, rng: rng}
	if t.Nodes == 1 || k <= 1 {
		s.uniform = true
		// Still track remoteness for reporting when Nodes > 1.
		if t.Nodes > 1 {
			lo, hi := t.QueueRangeOfNode(t.NodeOfWorker(worker))
			s.ownLo, s.ownHi = lo, hi
		} else {
			s.ownLo, s.ownHi = 0, m
		}
		return s
	}
	node := t.NodeOfWorker(worker)
	lo, hi := t.QueueRangeOfNode(node)
	own := float64(hi - lo)
	remote := float64(m-(hi-lo)) / k
	s.ownLo, s.ownHi = lo, hi
	s.pOwn = own / (own + remote)
	return s
}

// Sample draws one queue index from the weighted distribution.
func (s *Sampler) Sample() int {
	if s.uniform {
		q := s.rng.Intn(s.m)
		if q < s.ownLo || q >= s.ownHi {
			s.Remote++
		}
		return q
	}
	if s.rng.Float64() < s.pOwn {
		return s.ownLo + s.rng.Intn(s.ownHi-s.ownLo)
	}
	s.Remote++
	r := s.rng.Intn(s.m - (s.ownHi - s.ownLo))
	if r >= s.ownLo {
		r += s.ownHi - s.ownLo
	}
	return r
}

// SampleOther draws a queue index distinct from avoid, from Sample's
// distribution conditioned on that. It requires m >= 2.
func (s *Sampler) SampleOther(avoid int) int {
	if !s.uniform && s.ownHi-s.ownLo == 1 && avoid == s.ownLo {
		// avoid is the whole own block, which leaves the remote queues,
		// uniformly. Rejection would spin forever where pOwn rounds to 1.
		s.Remote++
		r := s.rng.Intn(s.m - 1)
		if r >= s.ownLo {
			r++
		}
		return r
	}
	for {
		q := s.Sample()
		if q != avoid {
			return q
		}
	}
}
