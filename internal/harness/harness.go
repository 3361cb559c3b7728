// Package harness assembles workloads, schedulers and baselines into the
// paper's experiments (§5, Appendices B–F). Every table and figure has a
// registered experiment (see registry.go) that regenerates its rows; the
// cmd/smqbench tool and the repository-root benchmarks drive them.
package harness

import (
	"fmt"
	"time"

	"repro/internal/algos"
	"repro/internal/cbpq"
	"repro/internal/coarse"
	"repro/internal/core"
	"repro/internal/emq"
	"repro/internal/graph"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/sched"
	"repro/internal/spray"
	"repro/internal/zoo"
)

// AlgoKind names a benchmark algorithm.
type AlgoKind string

// Benchmark algorithms (the paper's §5 set plus the PageRank extension).
const (
	AlgoSSSP     AlgoKind = "sssp"
	AlgoBFS      AlgoKind = "bfs"
	AlgoAStar    AlgoKind = "astar"
	AlgoMST      AlgoKind = "mst"
	AlgoPageRank AlgoKind = "pagerank"
)

// Workload is one benchmark: an algorithm on a graph.
type Workload struct {
	Name   string // e.g. "SSSP USA"
	Algo   AlgoKind
	Graph  *graph.CSR
	Src    uint32
	Target uint32 // A* only

	// Lazily computed baselines.
	seqTasks    uint64
	seqDuration time.Duration
	seqDist     []uint64 // expected SSSP/BFS result for validation
	seqReady    bool
}

// Run executes the workload on the given scheduler and optionally
// validates the result against the sequential baseline.
func (w *Workload) Run(s sched.Scheduler[uint32], validate bool) (algos.Result, error) {
	if validate {
		w.ensureBaseline()
	}
	switch w.Algo {
	case AlgoSSSP, AlgoBFS:
		var dist []uint64
		var res algos.Result
		if w.Algo == AlgoSSSP {
			dist, res = algos.SSSP(w.Graph, w.Src, s)
		} else {
			dist, res = algos.BFS(w.Graph, w.Src, s)
		}
		if validate {
			for v := range dist {
				if dist[v] != w.seqDist[v] {
					return res, fmt.Errorf("%s: dist[%d]=%d, want %d", w.Name, v, dist[v], w.seqDist[v])
				}
			}
		}
		return res, nil
	case AlgoAStar:
		d, res := algos.AStar(w.Graph, w.Src, w.Target, s)
		if validate && d != w.seqDist[w.Target] {
			return res, fmt.Errorf("%s: distance %d, want %d", w.Name, d, w.seqDist[w.Target])
		}
		return res, nil
	case AlgoMST:
		wt, _, res := algos.BoruvkaMST(w.Graph, s)
		if validate {
			wantW, _ := algos.KruskalMST(w.Graph)
			if wt != wantW {
				return res, fmt.Errorf("%s: MST weight %d, want %d", w.Name, wt, wantW)
			}
		}
		return res, nil
	case AlgoPageRank:
		cfg := algos.PageRankConfig{}
		pr, res := algos.ResidualPageRank(w.Graph, cfg, s)
		if validate {
			want := algos.PageRankSeq(w.Graph, cfg)
			tol := float64(w.Graph.N) * 1e-6 / 0.15 * 2
			if d := algos.L1Diff(pr, want); d > tol {
				return res, fmt.Errorf("%s: PageRank L1 diff %g > %g", w.Name, d, tol)
			}
		}
		return res, nil
	default:
		return algos.Result{}, fmt.Errorf("harness: unknown algorithm %q", w.Algo)
	}
}

// ensureBaseline computes the sequential reference lazily, once.
func (w *Workload) ensureBaseline() {
	if w.seqReady {
		return
	}
	start := time.Now()
	switch w.Algo {
	case AlgoSSSP:
		dist, res := algos.DijkstraSeq(w.Graph, w.Src)
		w.seqDist, w.seqTasks = dist, res.Tasks
	case AlgoBFS:
		dist, res := algos.BFSSeqPQ(w.Graph, w.Src)
		w.seqDist, w.seqTasks = dist, res.Tasks
	case AlgoAStar:
		// A* validation needs the true distance; reuse Dijkstra.
		dist, _ := algos.DijkstraSeq(w.Graph, w.Src)
		w.seqDist = dist
		_, res := algos.AStarSeq(w.Graph, w.Src, w.Target)
		w.seqTasks = res.Tasks
	case AlgoMST:
		_, edges := algos.KruskalMST(w.Graph)
		w.seqTasks = uint64(edges) + uint64(w.Graph.N)
	case AlgoPageRank:
		algos.PageRankSeq(w.Graph, algos.PageRankConfig{})
		w.seqTasks = uint64(w.Graph.N)
	}
	w.seqDuration = time.Since(start)
	w.seqReady = true
}

// SeqBaseline returns the sequential task count and duration, computing
// them on first use.
func (w *Workload) SeqBaseline() (uint64, time.Duration) {
	w.ensureBaseline()
	return w.seqTasks, w.seqDuration
}

// StandardWorkloads builds the paper's 12 benchmarks (Figure 2's panels)
// at the given scale: SSSP and BFS on USA/WEST/TWITTER/WEB, A* and MST on
// the road graphs.
func StandardWorkloads(scale int) []*Workload {
	gs := graph.StandardInputs(scale)
	var ws []*Workload
	for _, name := range []string{"USA", "WEST", "TWITTER", "WEB"} {
		g := gs[name]
		src := g.MaxOutDegreeVertex()
		ws = append(ws, &Workload{Name: "SSSP " + name, Algo: AlgoSSSP, Graph: g, Src: src})
	}
	for _, name := range []string{"USA", "WEST", "TWITTER", "WEB"} {
		g := gs[name]
		src := g.MaxOutDegreeVertex()
		ws = append(ws, &Workload{Name: "BFS " + name, Algo: AlgoBFS, Graph: g, Src: src})
	}
	for _, name := range []string{"USA", "WEST"} {
		g := gs[name]
		ws = append(ws, &Workload{Name: "A* " + name, Algo: AlgoAStar, Graph: g,
			Src: 0, Target: uint32(g.N - 1)})
	}
	for _, name := range []string{"USA", "WEST"} {
		g := gs[name]
		ws = append(ws, &Workload{Name: "MST " + name, Algo: AlgoMST, Graph: g})
	}
	return ws
}

// QuickWorkloads is a reduced benchmark set (one per algorithm) for the
// ablation grids, mirroring the paper's Figure 1 subset.
func QuickWorkloads(scale int) []*Workload {
	gs := graph.StandardInputs(scale)
	usa, twitter := gs["USA"], gs["TWITTER"]
	return []*Workload{
		{Name: "SSSP USA", Algo: AlgoSSSP, Graph: usa, Src: usa.MaxOutDegreeVertex()},
		{Name: "BFS TWITTER", Algo: AlgoBFS, Graph: twitter, Src: twitter.MaxOutDegreeVertex()},
		{Name: "A* USA", Algo: AlgoAStar, Graph: usa, Src: 0, Target: uint32(usa.N - 1)},
		{Name: "MST USA", Algo: AlgoMST, Graph: usa},
	}
}

// SchedulerSpec is a named scheduler factory over uint32 payloads: the
// zoo's public Spec instantiated at the graph-vertex payload type. The
// experiment lineups below construct parameterized variants (tuned
// steal sizes, NUMA placements) of the registry's schedulers; the
// canonical default-configured specs live in internal/zoo and are
// re-exported at the repository root as smq.Spec / smq.Lineup.
type SchedulerSpec = zoo.Spec[uint32]

// StandardSchedulers is the Figure 2 lineup — SMQ default + tuned, the
// skip-list SMQ, the optimized NUMA-aware classic MQ, OBIM, PMOD,
// SprayList and RELD — extended with the engineered MultiQueue of
// Williams et al. (2021) and the k-LSM of Wimmer et al. (2015) as
// additional comparison series.
func StandardSchedulers() []SchedulerSpec {
	return []SchedulerSpec{
		// The first four entries are the headline lineup; root benchmarks
		// slice them with [:4], so new series must be appended after
		// "MQ Classic" below.
		SMQSpec("SMQ (Default)", 4, 1.0/8, 0),
		SMQSpec("SMQ (Tuned)", 8, 1.0/4, 0),
		{
			Name:   "SMQ SkipList",
			Params: "steal=4 psteal=1/8",
			Make: func(workers int, seed uint64) sched.Scheduler[uint32] {
				return core.NewStealingMQSkipList[uint32](core.Config{Workers: workers, Seed: seed})
			},
		},
		{
			Name:   "MQ Optimized",
			Params: "C=4 ins=batch8 del=batch8 numa",
			Make: func(workers int, seed uint64) sched.Scheduler[uint32] {
				return mq.New[uint32](mq.Config{Workers: workers, C: 4,
					Insert: mq.InsertBatch, BatchInsert: 8,
					Delete: mq.DeleteBatch, BatchDelete: 8,
					NUMANodes: 2, NUMAWeightK: 8, Seed: seed})
			},
		},
		{
			Name:   "MQ Classic",
			Params: "C=4",
			Make:   ClassicMQBaseline,
		},
		EMQSpec("EMQ", 16, 16, 0),
		KLSMSpec("kLSM", 256),
		OBIMSpec("OBIM", 10, 64, false),
		OBIMSpec("PMOD", 10, 64, true),
		{
			Name:   "SprayList",
			Params: "default spray",
			Make: func(workers int, seed uint64) sched.Scheduler[uint32] {
				return spray.New[uint32](spray.Config{Workers: workers, Seed: seed})
			},
		},
		{
			Name:   "RELD",
			Params: "local dequeue",
			Make: func(workers int, seed uint64) sched.Scheduler[uint32] {
				c := mq.RELD(workers)
				c.Seed = seed
				return mq.New[uint32](c)
			},
		},
	}
}

// AllSchedulers is StandardSchedulers plus the two exact reference
// points outside the paper's Figure 2 lineup (so fig2 stays faithful):
// the coarse-locked global heap strawman — exact priority order, zero
// scalability — and the lock-free CBPQ, exact with no lock at all. The
// rank-probe and rank-regression experiments use both as
// zero-relaxation references.
func AllSchedulers() []SchedulerSpec {
	return append(StandardSchedulers(),
		SchedulerSpec{
			Name:   "CoarseLock",
			Params: "single global heap",
			Make: func(workers int, _ uint64) sched.Scheduler[uint32] {
				return coarse.New[uint32](coarse.Config{Workers: workers})
			},
			Bound: func(int) (int64, bool) { return 0, true },
		},
		CBPQSpec("CBPQ", cbpq.DefaultChunkCap))
}

// SMQSpec builds a heap-SMQ spec with the given parameters.
func SMQSpec(name string, stealSize int, stealProb float64, numaNodes int) SchedulerSpec {
	return SchedulerSpec{
		Name:   name,
		Params: fmt.Sprintf("steal=%d psteal=%.3g numa=%d", stealSize, stealProb, numaNodes),
		Make: func(workers int, seed uint64) sched.Scheduler[uint32] {
			return core.NewStealingMQ[uint32](core.Config{
				Workers: workers, StealSize: stealSize, StealProb: stealProb,
				NUMANodes: numaNodes, Seed: seed,
			})
		},
	}
}

// EMQSpec builds an engineered-MultiQueue spec with the given stickiness
// period and operation-buffer capacity (used for both the insertion and
// the deletion buffer, as in the emq ablation grid).
func EMQSpec(name string, stickiness, buffer, numaNodes int) SchedulerSpec {
	return SchedulerSpec{
		Name:   name,
		Params: fmt.Sprintf("stick=%d buf=%d numa=%d", stickiness, buffer, numaNodes),
		Make: func(workers int, seed uint64) sched.Scheduler[uint32] {
			return emq.New[uint32](emq.Config{
				Workers: workers, Stickiness: stickiness,
				InsertBuffer: buffer, DeleteBuffer: buffer,
				NUMANodes: numaNodes, Seed: seed,
			})
		},
	}
}

// KLSMSpec builds a k-LSM spec with the given relaxation bound k (the
// local-LSM capacity; klsm.Strict selects the exact k = 0 queue). The
// Params label reports the effective k after klsm's normalization, so
// the zero value is labelled with the default it actually runs.
// CBPQSpec builds a SchedulerSpec for the lock-free chunk-based
// priority queue. CBPQ is exact, so its rank bound is 0 regardless of
// chunk capacity (chunkCap 0 selects the default).
func CBPQSpec(name string, chunkCap int) SchedulerSpec {
	params := "lock-free"
	if chunkCap != 0 {
		params = fmt.Sprintf("chunk=%d lock-free", chunkCap)
	}
	return SchedulerSpec{
		Name:   name,
		Params: params,
		Make: func(workers int, _ uint64) sched.Scheduler[uint32] {
			return cbpq.New[uint32](cbpq.Config{Workers: workers, ChunkCap: chunkCap})
		},
		Bound: func(int) (int64, bool) { return 0, true },
	}
}

func KLSMSpec(name string, relaxation int) SchedulerSpec {
	effective := relaxation
	if effective == 0 {
		effective = klsm.DefaultRelaxation
	} else if effective == klsm.Strict {
		effective = 0
	}
	return SchedulerSpec{
		Name:   name,
		Params: fmt.Sprintf("k=%d", effective),
		Make: func(workers int, _ uint64) sched.Scheduler[uint32] {
			return klsm.New[uint32](klsm.Config{Workers: workers, Relaxation: relaxation})
		},
		Bound: func(workers int) (int64, bool) {
			return int64(workers-1)*int64(effective) + int64(workers), true
		},
	}
}

// OBIMSpec builds an OBIM/PMOD spec.
func OBIMSpec(name string, delta uint32, chunk int, adaptive bool) SchedulerSpec {
	return SchedulerSpec{
		Name:   name,
		Params: fmt.Sprintf("delta=%d chunk=%d", delta, chunk),
		Make: func(workers int, seed uint64) sched.Scheduler[uint32] {
			return obim.New[uint32](obim.Config{Workers: workers, Delta: delta,
				ChunkSize: chunk, Adaptive: adaptive, Seed: seed})
		},
	}
}

// ClassicMQBaseline is the ablation experiments' baseline scheduler (the
// classic Multi-Queue with C=4, as in Figures 1 and 3–20). Seed 0 keeps
// the scheduler's default seeding.
func ClassicMQBaseline(workers int, seed uint64) sched.Scheduler[uint32] {
	c := mq.Classic(workers, 4)
	c.Seed = seed
	return mq.New[uint32](c)
}

// Measurement is one measured cell of an experiment.
type Measurement struct {
	Experiment string
	Workload   string
	Scheduler  string
	Params     string
	Threads    int
	Duration   time.Duration
	Tasks      uint64
	Wasted     uint64
	// Speedup is relative to the experiment's declared baseline.
	Speedup float64
	// WorkIncrease is Tasks relative to the baseline's tasks.
	WorkIncrease float64
	// Remote is the fraction of queue accesses leaving the virtual node.
	Remote float64
}

// Measure runs spec on workload with the given thread count, repeating
// and keeping the best time (the paper reports averages of 10 runs; reps
// configure that).
func Measure(w *Workload, spec SchedulerSpec, threads, reps int, validate bool) (Measurement, error) {
	return MeasureSeeded(w, spec, threads, reps, validate, 0)
}

// MeasureSeeded is Measure with an explicit scheduler RNG seed (0 =
// the scheduler's default seeding). Repetitions derive distinct
// sub-seeds from it, so a multi-rep cell is as reproducible as a
// single-rep one.
func MeasureSeeded(w *Workload, spec SchedulerSpec, threads, reps int, validate bool, seed uint64) (Measurement, error) {
	if reps < 1 {
		reps = 1
	}
	var best algos.Result
	for r := 0; r < reps; r++ {
		res, err := w.Run(spec.Build(threads, repSeed(seed, r)), validate)
		if err != nil {
			return Measurement{}, err
		}
		if r == 0 || res.Duration < best.Duration {
			best = res
		}
	}
	m := Measurement{
		Workload:  w.Name,
		Scheduler: spec.Name,
		Params:    spec.Params,
		Threads:   threads,
		Duration:  best.Duration,
		Tasks:     best.Tasks,
		Wasted:    best.Wasted,
	}
	total := best.Sched.Pushes + best.Sched.Pops
	if total > 0 {
		m.Remote = float64(best.Sched.Remote) / float64(total)
	}
	return m, nil
}
