package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/algos"
	"repro/internal/contend"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// repResult is one repetition: one timed library call on one freshly
// built scheduler. seconds is wall time taken here, around the call.
type repResult struct {
	seconds  float64
	useful   uint64 // tasks the input requires, whatever the scheduler
	executed uint64 // tasks the run executed, wasted ones included
	stats    sched.Stats
	err      error // the output was wrong
}

// input is a workload instantiated from a seed: everything set up before
// the first timed repetition.
type input interface {
	// run does one repetition with the named zoo spec. instance numbers
	// the spec's repetitions; an input that holds several instances takes
	// them in turn. A non-nil run span asks for the traced pass: the
	// scheduler is wrapped before it is handed to the library.
	run(spec string, workers int, schedSeed uint64, instance int, run *runSpan) repResult
	// seqSeconds is the sequential baseline on the same input.
	seqSeconds() float64
}

// build constructs a zoo scheduler by name, the only way this benchmark
// makes one.
func build[T any](spec string, workers int, seed uint64) sched.Scheduler[T] {
	s, ok := smq.LookupSpec[T](spec)
	if !ok {
		panic("bench: no zoo spec " + spec)
	}
	return s.Build(workers, seed)
}

// ---------------------------------------------------------------------------
// Graph workloads

// A graph workload holds graphInstances graphs drawn from the seed and
// gives them to the repetitions in turn, so that a run's throughput is
// taken over several inputs: on one graph per run, obim's wasted work on
// sssp-rmat (20 to 35 times the useful work) moved its throughput by
// half from seed to seed. The sizes keep the total work of the instances
// at that of one 800 x 800 grid or one scale-18 RMAT.
const (
	graphInstances = 4
	roadSide       = 400
	rmatScale      = 16
	rmatEdges      = 16
)

// roadGraph draws the source from a small window at the centre of the
// grid. How near the source is to an edge of the grid shapes the
// frontier, and with it every scheduler's throughput: that is a property
// of the draw, so the draw is kept from moving it.
func roadGraph(seed uint64) (*smq.Graph, uint32) {
	g := smq.GenerateRoadGrid(roadSide, roadSide, seed)
	r := xrand.New(seed ^ 0x726f6164)
	const window = roadSide / 8
	row := (roadSide-window)/2 + r.Intn(window)
	col := (roadSide-window)/2 + r.Intn(window)
	return g, uint32(row*roadSide + col)
}

// rmatGraph starts from the graph's highest-out-degree vertex. A drawn
// source, even the best of 64 candidates, has a degree between 50 and
// 2000 depending on the seed, and the relaxed schedulers' wasted work
// follows it (1.02 to 1.22 measured): the hub keeps seeds comparable.
func rmatGraph(seed uint64) (*smq.Graph, uint32) {
	g := smq.GenerateRMAT(rmatScale, rmatEdges, seed)
	return g, g.MaxOutDegreeVertex()
}

// graphInstance is one graph with its source and sequential reference.
type graphInstance struct {
	g      *smq.Graph
	src    uint32
	ref    []uint64 // algos.DijkstraSeq distances
	useful uint64   // algos.DijkstraSeq task count: the work-increase denominator
}

type graphInput struct {
	instances []graphInstance
	seqS      float64 // sequential Dijkstra over all instances
	process   bool    // drive through smq.Process instead of smq.SSSP
}

func newGraphInput(gen func(uint64) (*smq.Graph, uint32), seed uint64, process bool) (input, error) {
	in := &graphInput{process: process}
	for i := uint64(0); i < graphInstances; i++ {
		g, src := gen(seed*graphInstances + i)
		t0 := time.Now()
		ref, seq := algos.DijkstraSeq(g, src)
		in.seqS += time.Since(t0).Seconds()
		reached := 0
		for _, d := range ref {
			if d != smq.Unreachable {
				reached++
			}
		}
		if reached < g.N/4 {
			return nil, fmt.Errorf("source %d reaches %d of %d vertices", src, reached, g.N)
		}
		in.instances = append(in.instances, graphInstance{g: g, src: src, ref: ref, useful: seq.Tasks})
	}
	return in, nil
}

func (in *graphInput) seqSeconds() float64 { return in.seqS }

func (in *graphInput) run(spec string, workers int, schedSeed uint64, instance int, run *runSpan) repResult {
	gi := &in.instances[instance%len(in.instances)]
	s := traced(build[uint32](spec, workers, schedSeed), run)
	res := repResult{useful: gi.useful}
	var dist []uint64
	t0 := time.Now()
	if in.process {
		dist, res.executed = processSSSP(gi.g, gi.src, s)
		res.seconds = time.Since(t0).Seconds()
		res.stats = s.Stats()
	} else {
		var r smq.Result
		dist, r = smq.SSSP(gi.g, gi.src, s)
		res.seconds = time.Since(t0).Seconds()
		res.executed, res.stats = r.Tasks, r.Sched
	}
	for v, d := range dist {
		if d != gi.ref[v] {
			res.err = fmt.Errorf("dist[%d] = %d, sequential Dijkstra says %d", v, d, gi.ref[v])
			break
		}
	}
	return res
}

// processSSSP is smq.SSSP's relaxation written against the public
// smq.Process entry point, as a library user would write it: scalar Pop
// and Push and one Pending increment per follow-on task.
func processSSSP(g *smq.Graph, src uint32, s smq.Scheduler[uint32]) ([]uint64, uint64) {
	dist := make([]atomic.Uint64, g.N)
	for i := range dist {
		dist[i].Store(smq.Unreachable)
	}
	dist[src].Store(0)
	executed := make([]contend.Padded[uint64], s.Workers())
	smq.Process(s,
		func(w smq.Worker[uint32]) { w.Push(0, src) },
		func(wid int, w smq.Worker[uint32], pending *smq.Pending, p uint64, u uint32) {
			executed[wid].Value++
			du := dist[u].Load()
			if p > du {
				return // stale: u was improved after this task was pushed
			}
			ts, ws := g.Neighbors(u)
			for i, v := range ts {
				nd := du + uint64(ws[i])
				for old := dist[v].Load(); nd < old; old = dist[v].Load() {
					if dist[v].CompareAndSwap(old, nd) {
						pending.Inc(1)
						w.Push(nd, v)
						break
					}
				}
			}
		})
	out := make([]uint64, g.N)
	for i := range out {
		out[i] = dist[i].Load()
	}
	var total uint64
	for i := range executed {
		total += executed[i].Value
	}
	return out, total
}

// ---------------------------------------------------------------------------
// hold

const (
	holdPrefill  = 1 << 16
	holdPrioBits = 20
	holdStep     = 64 // a popped task is pushed back at popped + U[0, holdStep)
	holdRepTime  = 100 * time.Millisecond
	// holdReseedCap bounds the fresh ids one worker may introduce after
	// locally dry pops, so that the conservation bitmap has a fixed size.
	holdReseedCap = 1 << 16
)

type holdInput struct {
	prefill []uint64 // priorities of tasks 0..holdPrefill-1
	dur     time.Duration
	seqS    float64
}

func newHoldInput(seed uint64, dur time.Duration) *holdInput {
	r := xrand.New(seed ^ 0x686f6c64)
	in := &holdInput{prefill: make([]uint64, holdPrefill), dur: dur}
	for i := range in.prefill {
		in.prefill[i] = r.Uint64() >> (64 - holdPrioBits)
	}
	return in
}

// holdSetup adds the sequential baseline: the same model on one d-ary
// heap with no scheduler around it.
func holdSetup(seed uint64) *holdInput {
	in := newHoldInput(seed, holdRepTime)
	h := pq.NewDHeapCap[uint32](4, holdPrefill)
	in.seqS = seqHold(h.Push, h.Pop, in.prefill, seqHoldPairs, xrand.New(seed))
	return in
}

// seqHoldPairs is the length of hold's sequential baseline.
const seqHoldPairs = 1 << 20

func (in *holdInput) seqSeconds() float64 { return in.seqS }

// holdWorker is one worker's state, padded apart from its neighbour's:
// the generator is written on every operation.
type holdWorker struct {
	rng            xrand.Rand
	pairs, reseeds uint64
	drained        []uint32
}

func (in *holdInput) run(spec string, workers int, schedSeed uint64, _ int, run *runSpan) repResult {
	raw := build[uint32](spec, workers, schedSeed)
	s := traced(raw, run)
	// Prefill and the drain go through the raw handles, so that a traced
	// repetition's worker spans cover the timed phase only.
	for i, p := range in.prefill {
		raw.Worker(i%workers).Push(p, uint32(i))
	}
	state := make([]contend.Padded[holdWorker], workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, st := s.Worker(wid), &state[wid].Value
			r := &st.rng
			r.Seed(schedSeed + uint64(wid) + 1)
			for !stop.Load() {
				p, v, ok := w.Pop()
				switch {
				case ok:
					w.Push(p+r.Uint64()%holdStep, v)
					st.pairs++
				case st.reseeds < holdReseedCap:
					id := holdPrefill + wid*holdReseedCap + int(st.reseeds)
					w.Push(r.Uint64()>>(64-holdPrioBits), uint32(id))
					st.reseeds++
				}
			}
		}()
	}
	time.Sleep(in.dur)
	stop.Store(true)
	wg.Wait()
	res := repResult{seconds: time.Since(t0).Seconds()}

	// Drain: every id pushed must come out exactly once.
	resident := int64(holdPrefill)
	for i := range state {
		resident += int64(state[i].Value.reseeds)
		res.useful += state[i].Value.pairs
	}
	res.executed = res.useful
	var pending sched.Pending
	pending.Inc(resident)
	pending.Close()
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, st := raw.Worker(wid), &state[wid].Value
			var b sched.Backoff
			for {
				_, v, ok := w.Pop()
				if ok {
					st.drained = append(st.drained, v)
					pending.Dec()
					b.Reset()
				} else if pending.Quiesced() {
					return
				} else {
					b.Wait()
				}
			}
		}()
	}
	wg.Wait()
	res.stats = raw.Stats()
	seen := make([]bool, holdPrefill+workers*holdReseedCap)
	for i := range state {
		for _, id := range state[i].Value.drained {
			if int(id) >= len(seen) || seen[id] {
				res.err = fmt.Errorf("hold drained id %d twice or out of range", id)
				return res
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		pushed := id < holdPrefill ||
			uint64((id-holdPrefill)%holdReseedCap) < state[(id-holdPrefill)/holdReseedCap].Value.reseeds
		if ok != pushed {
			res.err = fmt.Errorf("hold id %d: pushed %v, drained %v", id, pushed, ok)
			return res
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// serve-drain

const (
	serveRequests = 1 << 18
	serveTenants  = 4
	serveSkew     = 0.99
	// Request costs are bounded-Pareto as serve.LoadConfig's defaults.
	serveCostMin, serveCostMax, serveCostAlpha = 50, 2000, 1.1
	// openLoopRate is the fixed arrival rate of the traced pass's
	// open-loop run, well below what the drain sustains.
	openLoopRate = 500_000
)

type serveInput struct {
	seed uint64
	reqs []serve.Request
	seqS float64
}

// sink is the load target of the spin loops. The sequential baseline
// mirrors serve's calibrated-work loop (an atomic load per cost unit);
// serve does not export its own.
var sink atomic.Uint64

func newServeInput(seed uint64, n int) *serveInput {
	r := xrand.New(seed ^ 0x7365727665)
	z := xrand.NewZipf(serveTenants, serveSkew)
	costs := xrand.NewBoundedPareto(serveCostMin, serveCostMax, serveCostAlpha)
	in := &serveInput{seed: seed, reqs: make([]serve.Request, n)}
	for i := range in.reqs {
		// Enq is both the priority and the origin of the sojourn time:
		// requests are due in index order, all at the start.
		in.reqs[i] = serve.Request{Tenant: z.Sample(r), Cost: uint32(costs.Sample(r)), Enq: int64(i)}
	}
	t0 := time.Now()
	for _, q := range in.reqs {
		for i := uint32(0); i < q.Cost; i++ {
			_ = sink.Load()
		}
	}
	in.seqS = time.Since(t0).Seconds()
	return in
}

func (in *serveInput) seqSeconds() float64 { return in.seqS }

// serveWorkers is the worker count serve runs with: its ingest worker
// plus at least one pool worker.
func serveWorkers(workers int) int { return max(workers, 2) }

func (in *serveInput) run(spec string, workers int, schedSeed uint64, _ int, run *runSpan) repResult {
	res, _, _ := in.drain(spec, workers, schedSeed, run, false)
	return res
}

// drain feeds every request as fast as the ingest channel accepts and
// times Start to Wait. With timeFeed it also times how long the feeder
// sat blocked in a channel send, at two clock reads per blocked send.
func (in *serveInput) drain(spec string, workers int, schedSeed uint64, run *runSpan, timeFeed bool) (repResult, *serve.Stats, time.Duration) {
	workers = serveWorkers(workers)
	s := traced(build[serve.Request](spec, workers, schedSeed), run)
	svc, err := serve.New(s, serve.Config{Workers: workers, Tenants: serveTenants, Policy: serve.PolicyStall})
	if err != nil {
		return repResult{err: err}, nil, 0
	}
	var feedWait time.Duration
	fed := make(chan struct{})
	t0 := time.Now()
	svc.Start()
	go func() {
		defer close(fed)
		ch := svc.In()
		for _, q := range in.reqs {
			if !timeFeed {
				ch <- q
				continue
			}
			select {
			case ch <- q:
			default:
				b0 := time.Now()
				ch <- q
				feedWait += time.Since(b0)
			}
		}
		close(ch)
	}()
	st := svc.Wait()
	res := repResult{seconds: time.Since(t0).Seconds(), useful: uint64(len(in.reqs)), executed: st.Completed, stats: st.Sched}
	<-fed
	res.err = serveLedger(st, len(in.reqs))
	return res, st, feedWait
}

func serveLedger(st *serve.Stats, offered int) error {
	if st.Ingested != st.Completed+st.Shed || st.Shed != 0 || st.Completed != uint64(offered) {
		return fmt.Errorf("serve ledger: offered %d, ingested %d, completed %d, shed %d",
			offered, st.Ingested, st.Completed, st.Shed)
	}
	return nil
}

// openLoop offers the same number of requests on a fixed schedule and
// reports the sojourn distribution over all tenants and how late the
// generator ran.
func (in *serveInput) openLoop(spec string, workers int, schedSeed uint64) (p50, p99, maxLag time.Duration, err error) {
	workers = serveWorkers(workers)
	svc, err := serve.New(build[serve.Request](spec, workers, schedSeed),
		serve.Config{Workers: workers, Tenants: serveTenants, Policy: serve.PolicyStall})
	if err != nil {
		return 0, 0, 0, err
	}
	svc.Start()
	load, err := serve.Generate(svc.In(), svc.Epoch(), serve.LoadConfig{
		Rate: openLoopRate, Tasks: len(in.reqs), Tenants: serveTenants, Skew: serveSkew, Seed: in.seed})
	close(svc.In())
	st := svc.Wait()
	if err != nil {
		return 0, 0, 0, err
	}
	if err := serveLedger(st, len(in.reqs)); err != nil {
		return 0, 0, 0, err
	}
	all := st.PerTenant[0].Latency
	for t := 1; t < len(st.PerTenant); t++ {
		all.Merge(&st.PerTenant[t].Latency)
	}
	return time.Duration(all.Quantile(0.50)), time.Duration(all.Quantile(0.99)), load.MaxLag, nil
}
