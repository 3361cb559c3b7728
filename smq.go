// Package smq is a Go implementation of the Stealing Multi-Queue (SMQ),
// the relaxed concurrent priority scheduler of Postnikova, Koval,
// Nadiradze and Alistarh, "Multi-Queues Can Be State-of-the-Art Priority
// Schedulers" (PPoPP 2022), together with every scheduler the paper
// evaluates against (classic Multi-Queue and its batching / temporal-
// locality variants, RELD, OBIM, PMOD, SprayList), the graph workloads of
// its evaluation, and the analytical rank model of its Theorem 1.
//
// Beyond the paper's own lineup, the package also provides the engineered
// MultiQueue (EMQ) of Williams, Sanders and Dementiev, "Engineering
// MultiQueues: Fast Relaxed Concurrent Priority Queues" (2021) — the
// strongest published Multi-Queue follow-up, which adds queue stickiness
// to the Multi-Queue's insertion/deletion buffers; the "emq" spec builds
// it at their recommended configuration, and MQConfig.Stickiness is its
// knob — and the k-LSM of Wimmer, Gruber, Träff
// and Tsigas, "The Lock-Free k-LSM Relaxed Priority Queue" (PPoPP 2015),
// the strongest non-Multi-Queue baseline of the paper's evaluation: a
// log-structured-merge queue whose relaxation is the explicit capacity
// bound k of each worker's thread-local LSM; see NewKLSM and KLSMConfig.
//
// The workload zoo extends past the paper's CSR-graph benchmarks with a
// geometric family — parallel k-nearest-neighbour graph construction and
// exact Euclidean MST over generated point sets (KNNGraph, EuclideanMST,
// GenerateUniformPoints, GenerateGaussianClusters) — the classic
// relaxed-priority-queue workloads of Rihani, Sanders and Dementiev
// (2014), where tasks expand an implicit metric graph by distance
// priority instead of walking a prebuilt adjacency structure.
//
// # Memory layout & contention
//
// The paper attributes the Multi-Queue family's throughput as much to
// memory discipline as to algorithm (§4): cheap uncontended locking,
// cache-line-conscious layout, and allocation-free steady state. This
// implementation keeps all three, via the internal contend package:
//
//   - Queue headers and the coarse/k-LSM global locks use a padded TATAS
//     try-spinlock (two atomic word operations per uncontended
//     acquire/release, bounded exponential backoff then Gosched when
//     blocking) rather than sync.Mutex — the try-lock discipline means a
//     contended queue is resampled, never waited for, so futex parking
//     is pure overhead on these paths.
//   - Every contiguous hot array is padded to cache-line multiples:
//     lock-queue headers (lock word + cached top per line), per-worker
//     handles (sticky indices, buffer cursors), per-worker statistics
//     counters, and the SMQ steal-buffer epoch word, which lives on its
//     own line so thieves' CAS traffic never invalidates the owner's
//     local-queue header. Worker RNGs and NUMA samplers are embedded by value
//     in the padded handles instead of being separate heap allocations
//     that could share lines between workers.
//   - The steady state allocates nothing: heaps and operation buffers
//     are reused in place and zero vacated slots (so popped pointerful
//     payloads are released to the GC), and the k-LSM merge path
//     recycles retired blocks through per-LSM slab pools. Regression
//     tests assert 0 allocs/op for the SMQ and Multi-Queue hot paths,
//     the engineered MultiQueue's included.
//
// The effect of each such change is measured by the repo benchmark:
// `bash bench/run.sh` (declared in BENCHMARK.json) runs verified
// SSSP, Process, hold and serve workloads at more than one worker and
// reports throughput per scheduler with per-layer shares alongside.
//
// # Batching
//
// Every Worker also exposes bulk operations — PushN(ps, vs) and
// PopN(dst) — with scheduler-specific fast paths: the Multi-Queues
// place or extract a whole batch under a single sampled lock, or route
// it through their insertion/deletion buffers when they have them, the
// SMQ drains its steal buffer and local queue in one pass, and the k-LSM
// turns a batch into one sorted LSM block, skipping the
// per-element merge cascade.
// Batches amortize the fixed per-operation costs — queue sampling,
// lock round trips, atomic counter traffic — that dominate once a
// workload relaxes many neighbours per popped task. The trade is the
// same one the schedulers' internal buffers already make: a batch is
// placed (or taken) as a unit, so rank relaxation grows with batch
// size. Batches help whenever one task expansion produces several
// pushes (SSSP relaxations, k-NN candidate updates) and hurt nothing
// when they carry a single task.
//
// Process and the built-in workloads (SSSP, BFS, A*, MST, k-NN,
// PageRank) run on one batched worker loop: a worker pops up to 8 tasks
// per PopN, runs the task body on each, and publishes everything they
// emitted in one PushN — so a follow-on task becomes visible to the
// scheduler at the end of its worker's current batch of at most 8. The
// batch's Pending accounting is one atomic: after popping k tasks and
// buffering m follow-ons, a single pending.Inc(m−k) issued BEFORE the
// PushN. The +m registers tasks while they are still buffered (so
// Pending cannot hit zero while they exist), and the −k retires only
// fully processed tasks; the transient over-count merely makes idle
// workers re-poll. m is counted off the buffer; the *Pending that
// Process hands its callback, kept for the Inc-before-Push protocol, is
// a worker-private counter nothing reads (Inc only). A popped batch is
// private to its worker until its last body returns; the tasks behind it
// are not — the SMQ refills its steal buffer on every pop, with as many
// tasks as the pop took — so coarse bodies still spread across workers.
//
// # Serving
//
// Everything above is run-to-completion: all work descends from seeds
// registered before workers start, so the in-flight count hitting zero
// IS termination (Pending.Load() == 0, or Close-at-seed + Quiesced as Process
// does). A long-running service is the opposite shape — tasks stream in
// from outside the worker set and the queue legitimately drains to
// empty between arrival bursts — and internal/serve provides that
// front-end over any scheduler in the zoo: channel-fed streaming
// ingestion through a hybrid ingest-and-process worker (scheduler
// handles bury pushed tasks in handle-local buffers, so a push-only
// ingester would strand its tail), admission control with stall or
// shed policies at a pending-task watermark, an elastic worker pool
// that parks idle worker slots on wake channels instead of spinning,
// and per-tenant sojourn-latency histograms. Termination there uses
// Pending.Close + Quiesced — drained AND closed — never a zero count alone;
// see the sched.Pending documentation for the emptiness-vs-quiescence
// contract. The "serve" harness experiment (`smqbench -exp serve`)
// records an offered-load × scheduler grid.
//
// # Named schedulers
//
// LookupSpec(name).Make(workers, seed) is the one way to build a
// scheduler at its default configuration: Lineup lists the whole zoo
// (exact coarse baseline first) and LookupSpec resolves one name. A Spec
// bundles the factory, Make, with the scheduler's RankBound, so generic
// drivers (repo benchmark, serving front-end, simulation engine) can
// construct any scheduler by name and reason about its relaxation
// without a hand-maintained switch:
//
//	spec, _ := smq.LookupSpec[string]("klsm")
//	s := spec.Make(8, 42)
//	bound, exact := spec.RankBound(8) // 1800, true
//
// A New* constructor exists only where a caller may turn a knob of the
// scheduler's config (NewMultiQueue with RELD's MQConfig{C: 1, Delete:
// DeleteLocal}, NewOBIM with PMOD's OBIMConfig{Adaptive: true}, ...);
// each has an Example that does.
//
// # Exports
//
// An exported identifier of this package stays only if an
// output-checked Example uses it, non-test code uses it (today that is
// the repo benchmark in bench/), or it appears in the signature of an
// identifier that stays; TestExportsFollowTheRule checks the rule over
// smq.go, example_test.go and bench/. Applying it took the exports of
// smq.go from 59 to 50.
//
// Every other declaration of the module — in internal/ and cmd/, and
// the unexported ones of this package: functions, methods, types,
// package-level vars and consts, struct fields — stays only if non-test
// code of the module or of bench/ uses it; a method also counts as used
// when its type implements a used interface that declares it.
// TestEveryDeclarationIsUsed checks this type-checked, over the files
// this platform builds. A test oracle lives in its package's _test.go
// files. The declared test-support list, each entry with its reason in
// the test, holds what tests of another package need and a _test.go
// file cannot export: benchutil.Throughput (six scheduler packages'
// throughput benchmarks) and geom.BruteKNN (algos' k-NN oracle).
//
// # Simulation & safe lookahead
//
// RankBound is what makes a relaxed scheduler a discrete-event
// simulation engine (internal/desim, `smqbench -exp desim`): pushing
// each event at priority = timestamp turns pop-driven workers into a
// parallel event loop, and a rank-error bound B is exactly a conservative-PDES
// lookahead window in rank units — the scheduler never runs an event
// with more than B smaller-timestamp events pending. A model whose
// events tolerate executing up to B ranks early therefore simulates
// correctly with no synchronization beyond the scheduler itself. The
// k-LSM's worst-case (P−1)·k+P and the coarse queue's 0 are hard
// guarantees (RankBound reports exact=true; the desim engine's
// causality check must count zero violations, and every desim run is
// machine-checked for that claim before it is reported); the
// Multi-Queue family's Theorem-1 bounds are expectation-scale, so
// violations are possible but counted; OBIM-style schedulers report no
// usable bound and run unchecked.
//
// # Priorities
//
// All schedulers order tasks by a uint64 priority where LOWER means
// HIGHER priority, matching distance-driven workloads such as Dijkstra's
// algorithm. Priority pq-style ties are broken arbitrarily.
//
// # Workers
//
// A Scheduler is created for a fixed number of workers. Each worker
// goroutine claims its handle once via Worker(i) and uses only that
// handle; handles carry thread-local state (local queues, steal buffers,
// batching buffers) and must not be shared:
//
//	s := smq.NewStealingMQ[string](smq.SMQConfig{Workers: 4})
//	var wg sync.WaitGroup
//	for i := 0; i < 4; i++ {
//		wg.Add(1)
//		go func(i int) {
//			defer wg.Done()
//			w := s.Worker(i)
//			w.Push(10, "hello")
//			if p, v, ok := w.Pop(); ok { _ = v; _ = p }
//		}(i)
//	}
//	wg.Wait()
//
// # Relaxation
//
// Pop may return a task that is not the global minimum — for the SMQ the
// expected rank of the returned task is bounded (Theorem 1) — and may
// spuriously report emptiness while tasks sit in other workers' local
// buffers. Algorithms built on these schedulers track in-flight work
// with a Pending counter; see the SSSP and other drivers in this package
// for the canonical pattern.
//
// # Lock-free tier
//
// Every scheduler above serializes somewhere through a spinlock: the
// Multi-Queue family locks the sampled heap (try-lock first, but the
// winner still holds it), the k-LSM locks its global-LSM merges, and
// the coarse baseline is one big lock. Their progress guarantee is
// therefore blocking — a descheduled lock holder stalls every worker
// that samples its queue. NewCBPQ adds the genuinely non-blocking tier:
// a CAS-based chunk-based priority queue (Braginsky, Cohen and
// Petrank, Euro-Par 2016) in which every operation completes in a
// bounded number of steps unless some other operation succeeded — the
// lock-free guarantee — and Stats().LockFails counts CAS failures
// because there is no lock to fail. It is the honest competitor the
// MultiQueue papers position themselves against, and it is exact
// (rank bound 0, like the coarse baseline and the strict k-LSM).
//
// The shape of the structure is a short chain of fixed-capacity chunks
// partitioned by priority range: a sorted first chunk consumed through
// a packed index word (one CAS claims the next sorted slot — the word
// also carries the freeze bit and a publish counter, so a successful
// claim proves the head it read is still the live head), interior
// chunks accepting inserts via a count-word CAS, and an insertion
// buffer for priorities that belong in the first chunk's range. A full
// or contended chunk is never mutated in place: it is frozen (one
// atomic Or on that same word, after which its membership is
// immutable), replacement chunks are built privately, and a single
// root CAS publishes the new structure — split for a full interior
// chunk, first-chunk rebuild for a drained head or a buffered
// small-priority insert. Any thread can help complete a frozen
// structure's replacement, which is what makes the design lock-free.
//
// Bulk operations have chunk-granular meaning without a lock to batch
// under: PopN claims n consecutive sorted slots with ONE CAS on the
// head's index word, and PushN sorts its batch once and publishes each
// same-chunk run with ONE count-word CAS — the reservation is the
// atomic, the element copies are plain stores behind per-slot ready
// flags. The trade-off relative to the lock-based tier is allocation
// and the decremental-key worst case: published chunks cannot be
// pooled without epoch reclamation, and an insert below the first
// chunk's range forces a first-chunk rebuild (see internal/cbpq's
// package documentation and alloc gates for the amortized bounds).
//
// # Combining
//
// Decremental workloads (Dijkstra/SSSP relaxations, the hold pattern:
// pop the minimum, push it back slightly above the old head) hammer
// exactly that worst case — nearly every push lands below the first
// chunk's range. The CBPQ therefore combines them, preserving the
// exact rank bound: a below-head push appends to an insertion buffer
// and linearizes by bumping a publish counter in the head's claim
// word, so a concurrent head claim that could overtake it fails and
// retries. The buffered entries cost nothing until one of them blocks
// a pop; that pop elects itself combiner via the ordinary root CAS,
// and a single freeze -> merge -> republish rebuild absorbs the whole
// buffer at once — n pushes, one allocation burst, one publication.
// Stats().Combines counts the inserts merged this way. (The zoo's
// "cbpq-elim" spec is an alias of "cbpq", kept because the repo
// benchmark reports under that name.)
//
// # Running experiments
//
// cmd/smqbench regenerates the paper's tables and figures. Every
// experiment is a deterministic enumeration of cells — one (scheduler,
// workload, thread count, repetitions) measurement each, with a
// per-cell RNG seed derived from the base -seed — that one process runs
// whole:
//
//	smqbench -exp fig2 -scale 1 -threads 1,2,4        # run and print the tables
//	smqbench -exp fig2 -listcells                     # print the enumeration
//	smqbench -exp fig2 -fragment fig2.json            # run, write every cell's result
//	smqbench -exp fig2 -assemble fig2.json            # render the tables from it
//
// A fragment is self-contained schema-versioned JSON (internal/perfbench)
// carrying the experiment id, the run configuration fingerprint, a host
// fingerprint and per-cell status (ok, timeout or error). Because cell
// seeds depend only on the base seed and the cell's index, the tables
// assembled from it are byte-identical (modulo timing fields) to an
// in-process run. -celltimeout bounds each cell's wall clock; after a
// cell exceeds it no further cell runs.
package smq

import (
	"repro/internal/algos"
	"repro/internal/cbpq"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/ranksim"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// Scheduler is a relaxed concurrent priority scheduler; see the package
// documentation for the worker-handle protocol.
type Scheduler[T any] = sched.Scheduler[T]

// Worker is a per-goroutine scheduler handle.
type Worker[T any] = sched.Worker[T]

// Task is a prioritized task as moved by the bulk operations PushN and
// PopN; see the package documentation's Batching section.
type Task[T any] = sched.Task[T]

// Pending is the in-flight task counter used for termination detection
// with relaxed schedulers.
type Pending = sched.Pending

// SMQConfig configures the Stealing Multi-Queue (defaults: StealSize 16,
// StealProb 1/32, a 4-ary heap behind each local queue's bucket window).
// The steal defaults are a W = 2 choice backed by a committed fig1 sweep
// (results/fig1-w2); the paper's 28–128-thread setting, StealSize 4 and
// StealProb 1/8, stays settable. A worker whose own queue is empty
// probes 2·Workers victims before its Pop reports empty. The SMQ has no
// insert buffer of its own: a batch of inserts goes in through PushN, as
// the worker loop's Sink does.
type SMQConfig = core.Config

// MQConfig configures the Multi-Queue family: the classic queue, its task
// batching and temporal-locality optimisations, RELD, and the engineered
// MultiQueue's queue stickiness.
type MQConfig = mq.Config

// KLSMConfig configures the k-LSM of Wimmer et al. (thread-local LSMs
// of at most Relaxation tasks over a shared global LSM; Relaxation
// KLSMStrict selects the exact k = 0 queue).
type KLSMConfig = klsm.Config

// KLSMStrict is the KLSMConfig.Relaxation value for the strict k = 0
// configuration (exact priority order through the global LSM).
const KLSMStrict = klsm.Strict

// OBIMConfig configures the OBIM baseline, and PMOD with Adaptive set.
type OBIMConfig = obim.Config

// CBPQConfig configures the lock-free chunk-based priority queue
// (fixed chunk capacity; see the Lock-free tier and Combining sections
// above).
type CBPQConfig = cbpq.Config

// Multi-Queue policy selectors, re-exported for MQConfig.
const (
	InsertTemporalLocality = mq.InsertTemporalLocality
	InsertBatch            = mq.InsertBatch
	DeleteTemporalLocality = mq.DeleteTemporalLocality
	DeleteBatch            = mq.DeleteBatch
	DeleteLocal            = mq.DeleteLocal
)

// NewStealingMQ builds the paper's headline scheduler: thread-local
// exact queues with stealing buffers (§2.2, §4). Each local queue keeps a
// window of 4 096 consecutive priorities in width-1 buckets, O(1) per push
// and pop, and every task outside the window in a 4-ary heap (the
// paper's local queue); the guarantees need only that a local pop is
// exact, which both are.
func NewStealingMQ[T any](cfg SMQConfig) Scheduler[T] {
	return core.NewStealingMQ[T](cfg)
}

// NewStealingMQSkipList builds the SMQ variant with concurrent skip lists
// as local queues (§4, Appendix D).
func NewStealingMQSkipList[T any](cfg SMQConfig) Scheduler[T] {
	return core.NewStealingMQSkipList[T](cfg)
}

// NewMultiQueue builds a Multi-Queue with explicit configuration
// (classic, batching and temporal-locality policies; §2.1, Appendix C).
func NewMultiQueue[T any](cfg MQConfig) Scheduler[T] {
	return mq.New[T](cfg)
}

// NewKLSM builds the k-LSM of Wimmer, Gruber, Träff and Tsigas (PPoPP
// 2015): per-worker log-structured-merge queues bounded by
// cfg.Relaxation tasks, spilling whole sorted blocks into a shared
// global LSM, with a relaxed DeleteMin that takes the better of the
// local and global minima and may skip up to k tasks per other worker.
func NewKLSM[T any](cfg KLSMConfig) Scheduler[T] {
	return klsm.New[T](cfg)
}

// NewOBIM builds the Galois OBIM baseline (priority bags keyed by
// priority >> delta; each bag one FIFO of recycled task chunks, served
// oldest chunk first).
func NewOBIM[T any](cfg OBIMConfig) Scheduler[T] {
	return obim.New[T](cfg)
}

// NewCBPQ builds the lock-free chunk-based priority queue of
// Braginsky, Cohen and Petrank (Euro-Par 2016): fixed-capacity chunks
// partitioned by priority range, a sorted first chunk consumed through
// a packed CAS-claimed index word, CAS-published inserts with a
// freeze/split protocol, chunk-granular lock-free PushN/PopN fast
// paths, and a combining insertion buffer for below-head inserts.
// Exact (rank bound 0) and non-blocking; see the package
// documentation's Lock-free tier and Combining sections.
func NewCBPQ[T any](cfg CBPQConfig) Scheduler[T] {
	return cbpq.New[T](cfg)
}

// Spec is a named scheduler: a factory plus the scheduler's rank-error
// bound. The zoo registry (Lineup, LookupSpec) hands out Specs with
// every scheduler's default configuration; generic drivers build
// schedulers by name through them instead of maintaining their own
// name→constructor switches.
type Spec[T any] = zoo.Spec[T]

// Lineup returns the full named-scheduler zoo at payload type T, exact
// coarse baseline first. The slice is freshly allocated; callers may
// reorder or filter it.
func Lineup[T any]() []Spec[T] { return zoo.Lineup[T]() }

// LookupSpec resolves one zoo scheduler by name (see Lineup).
func LookupSpec[T any](name string) (Spec[T], bool) { return zoo.Lookup[T](name) }

// processBatch is Process's pop-batch capacity, the built-in drivers'
// setting (see the package documentation's Batching section).
const processBatch = 8

// Process runs one goroutine per scheduler worker and invokes fn for
// every task until no work remains. It owns the termination protocol:
// fn receives a worker handle to push follow-on tasks and MUST call
// pending.Inc(1) before each Push (or Inc(k) before k of them); Process
// retires each processed task itself. seed enqueues the initial tasks
// through worker 0 (pending is incremented for them automatically).
//
// Process runs on the batched worker loop of the built-in workloads:
// a worker pops up to 8 tasks at a time, and the handle it gives fn
// buffers — follow-on tasks become visible to the scheduler, in one
// PushN, at the end of the worker's current batch (or as soon as fn
// calls the handle's Pop or PopN). The run's shared
// counter is updated once per batch, before that PushN, with the number
// of tasks fn pushed: the run cannot end while buffered tasks exist. The
// pending passed to fn is a worker-private counter nothing reads: only
// Inc is meaningful on it, and the Inc is uncontended.
//
//	smq.Process(s, func(w smq.Worker[uint32]) {
//	    w.Push(0, root) // seed
//	}, func(wid int, w smq.Worker[uint32], pending *smq.Pending, p uint64, v uint32) {
//	    for _, next := range expand(v) {
//	        pending.Inc(1)
//	        w.Push(next.Priority, next.Value)
//	    }
//	})
func Process[T any](
	s Scheduler[T],
	seed func(w Worker[T]),
	fn func(wid int, w Worker[T], pending *Pending, p uint64, v T),
) {
	var pending Pending
	seeds := seedSink[T]{sched.NewSink(s.Worker(0), &pending)}
	seed(seeds)
	seeds.Flush()
	// The loop counts what fn pushed; fn's Incs land on padded scratch.
	incs := make([]contend.Padded[Pending], s.Workers())
	sched.Run(s, &pending, s.Workers(), processBatch,
		func(wid int, out *sched.Sink[T], p uint64, v T) bool {
			fn(wid, out, &incs[wid].Value, p, v)
			return false
		})
}

// seedSink is the handle Process gives seed: a Sink that publishes
// every processBatch scalar pushes, so a long seed list is neither
// buffered whole nor, on the Multi-Queues, pushed into one queue as one
// run.
type seedSink[T any] struct{ *sched.Sink[T] }

func (s seedSink[T]) Push(p uint64, v T) {
	s.Sink.Push(p, v)
	if s.Len() >= processBatch {
		s.Flush()
	}
}

// ---------------------------------------------------------------------------
// Graphs

// Graph is a directed weighted graph in CSR form.
type Graph = graph.CSR

// GraphEdge is an edge for BuildGraph.
type GraphEdge = graph.Edge

// Coord is a planar vertex coordinate (enables the A* heuristic).
type Coord = graph.Coord

// BuildGraph assembles a CSR graph from an edge list; coords may be nil.
// It is the way in for an outside graph (a real road network, say): the
// repository reads no graph file format, so the caller parses the file
// and hands over its edges and coordinates.
func BuildGraph(n int, edges []GraphEdge, coords []Coord) (*Graph, error) {
	return graph.Build(n, edges, coords)
}

// GenerateRoadGrid builds a road-network-like planar graph with
// coordinates and admissible A* weights (the paper's USA/WEST stand-in).
func GenerateRoadGrid(rows, cols int, seed uint64) *Graph {
	return graph.GenerateRoadGrid(rows, cols, seed)
}

// GenerateRMAT builds a power-law RMAT graph with uniform [0,255] weights
// (the paper's TWITTER/WEB stand-in).
func GenerateRMAT(scale, edgeFactor int, seed uint64) *Graph {
	return graph.GenerateRMAT(scale, edgeFactor, graph.DefaultRMATParams(), seed)
}

// ---------------------------------------------------------------------------
// Algorithms

// Result reports a parallel run's task accounting (total, wasted) and
// duration. Duration covers only the worker loop, not the call's set-up
// and hand-back around it; a caller that wants time to solution times
// the whole call.
type Result = algos.Result

// Unreachable is the distance reported for unreachable vertices.
const Unreachable = algos.Unreachable

// SSSP computes single-source shortest paths using the given scheduler.
func SSSP(g *Graph, src uint32, s Scheduler[uint32]) ([]uint64, Result) {
	return algos.SSSP(g, src, s)
}

// BFS computes hop distances using the given scheduler.
func BFS(g *Graph, src uint32, s Scheduler[uint32]) ([]uint64, Result) {
	return algos.BFS(g, src, s)
}

// AStar computes the src→target distance with the coordinate heuristic.
func AStar(g *Graph, src, target uint32, s Scheduler[uint32]) (uint64, Result) {
	return algos.AStar(g, src, target, s)
}

// BoruvkaMST computes the minimum spanning forest weight and edge count.
func BoruvkaMST(g *Graph, s Scheduler[uint32]) (uint64, int, Result) {
	return algos.BoruvkaMST(g, s)
}

// ---------------------------------------------------------------------------
// Geometry

// PointSet is a dense point set in R^d, the input of the geometric
// workloads (k-NN graph construction, Euclidean MST).
type PointSet = geom.PointSet

// GenerateUniformPoints generates n points uniformly in [0,1)^dim,
// reproducibly from the seed.
func GenerateUniformPoints(n, dim int, seed uint64) *PointSet {
	return geom.UniformCube(n, dim, seed)
}

// GenerateGaussianClusters generates n points grouped into Gaussian
// clusters with the given per-coordinate standard deviation,
// reproducibly from the seed.
func GenerateGaussianClusters(n, dim, clusters int, stddev float64, seed uint64) *PointSet {
	return geom.GaussianClusters(n, dim, clusters, stddev, seed)
}

// KNNGraph builds the directed k-nearest-neighbour graph of a point set
// with the given scheduler: each task resolves one vertex's k-th
// neighbour by bounded-radius kd-tree queries, re-enqueued with widened
// radius (priority = quantized current radius) until resolved. The
// result is deterministic for every scheduler.
func KNNGraph(ps *PointSet, k int, s Scheduler[uint32]) (*Graph, Result) {
	return algos.KNNGraph(ps, k, s)
}

// EuclideanMST computes the exact Euclidean minimum spanning tree of a
// point set (k-NN candidate graph + Boruvka contraction with a
// widen-radius fallback), returning total quantized weight and edge
// count. The result matches EuclideanMSTSeq exactly.
func EuclideanMST(ps *PointSet, k int, s Scheduler[uint32]) (uint64, int, Result) {
	return algos.EuclideanMST(ps, k, s)
}

// EuclideanMSTSeq is the sequential O(n^2) Prim baseline for
// EuclideanMST.
func EuclideanMSTSeq(ps *PointSet) (uint64, int) {
	return algos.PrimEMSTSeq(ps)
}

// PageRankConfig configures ResidualPageRank.
type PageRankConfig = algos.PageRankConfig

// ResidualPageRank computes PageRank by prioritized residual propagation.
func ResidualPageRank(g *Graph, cfg PageRankConfig, s Scheduler[uint32]) ([]float64, Result) {
	return algos.ResidualPageRank(g, cfg, s)
}

// DijkstraSeq is the sequential shortest-path baseline.
func DijkstraSeq(g *Graph, src uint32) []uint64 {
	dist, _ := algos.DijkstraSeq(g, src)
	return dist
}

// ---------------------------------------------------------------------------
// Theory

// RankModelConfig configures the §3 discrete SMQ rank model.
type RankModelConfig = ranksim.DiscreteConfig

// RankModelResult is the measured rank statistics of a model run.
type RankModelResult = ranksim.Result

// RunRankModel simulates the sequential SMQ process of the paper's
// analysis and reports removed-element rank statistics (Theorem 1).
func RunRankModel(cfg RankModelConfig) RankModelResult {
	return ranksim.RunDiscrete(cfg)
}

// RankTheoremBound evaluates Theorem 1's scaling for the expected
// average rank: O(nB(1+γ)/p · log((1+γ)/p)).
func RankTheoremBound(queues, batch int, stealProb, gamma float64) float64 {
	return ranksim.TheoremBound(queues, batch, stealProb, gamma)
}
