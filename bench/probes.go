package main

import (
	"sync"
	"time"

	"repro/internal/contend"
	"repro/internal/cskiplist"
	"repro/internal/pq"
	"repro/internal/xrand"
)

// Layer probes: direct calls into the public functions of the layers
// below the schedulers, and a short hold run of every zoo spec. They do
// not depend on the workload and run in every traced pass, so that a
// change to one of these layers shows next to the scheduler numbers it
// should move.

const (
	probePairs    = 1 << 19
	probeLockOps  = 1 << 22
	zooProbeTime  = 100 * time.Millisecond
	serveProbeReq = 1 << 17 // requests of the serve probe outside serve-drain
)

// seqHold runs the hold model on one sequential queue: prefill, then
// pairs pops each followed by a push at popped + U[0, holdStep). It
// returns the seconds the pairs took.
func seqHold(push func(uint64, uint32), pop func() (uint64, uint32, bool), prefill []uint64, pairs int, r *xrand.Rand) float64 {
	for i, p := range prefill {
		push(p, uint32(i))
	}
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		p, v, _ := pop()
		push(p+r.Uint64()%holdStep, v)
	}
	return time.Since(t0).Seconds()
}

// layerProbes times the sequential queues, the lock and the concurrent
// skip list, in ns per pop+push pair or per Lock+Unlock pair.
func layerProbes(prefill []uint64, seed uint64) map[string]float64 {
	r := xrand.New(seed)
	pairNs := func(seconds float64) float64 { return seconds * 1e9 / probePairs }
	h := pq.NewDHeapCap[uint32](4, len(prefill))
	sl := pq.NewSeqSkipList[uint32](seed)
	csl := cskiplist.New[uint32](seed)
	out := map[string]float64{
		"pq.dheap_pair_ns":    pairNs(seqHold(h.Push, h.Pop, prefill, probePairs, r)),
		"pq.skiplist_pair_ns": pairNs(seqHold(sl.Push, sl.Pop, prefill, probePairs, r)),
		"cskiplist.pair_ns":   pairNs(seqHold(csl.Insert, csl.DeleteMin, prefill, probePairs, r)),
	}

	var l contend.Lock
	t0 := time.Now()
	for i := 0; i < probeLockOps; i++ {
		l.Lock()
		l.Unlock()
	}
	out["contend.lock_pair_ns"] = float64(time.Since(t0).Nanoseconds()) / probeLockOps

	// Two goroutines take turns through one lock: the cost of an
	// acquisition when the line has to cross cores.
	var wg sync.WaitGroup
	shared := 0
	t0 = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probeLockOps/2; i++ {
				l.Lock()
				shared++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	out["contend.lock_handoff_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(shared)
	return out
}

// zooProbes runs hold for zooProbeTime on every spec of zooSpecs, the
// gated lineup included, and reports pairs per second. Failed conservation
// checks are returned as errors.
func zooProbes(seed uint64, workers int) (map[string]float64, []error) {
	in := newHoldInput(seed, zooProbeTime)
	out := map[string]float64{}
	var errs []error
	for i, spec := range zooSpecs {
		res := in.run(spec, workers, schedSeed(seed, i), 0, nil)
		if res.err != nil {
			errs = append(errs, res.err)
		}
		out["zoo.pairs_per_s."+spec] = float64(res.useful) / res.seconds
	}
	return out, errs
}
