// Package harness assembles workloads, schedulers and baselines into the
// paper's experiments (§5, Appendices B–F). Every table and figure has a
// registered experiment (see registry.go) that regenerates its rows; the
// cmd/smqbench tool and the repository-root benchmarks drive them.
package harness

import (
	"fmt"
	"time"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mq"
	"repro/internal/sched"
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
// zoo's Spec instantiated at the graph-vertex payload type. Lineups
// below take default-configured schedulers from the registry by name
// and build every parameterized variant (tuned steal sizes, NUMA
// placements, ablation grids) through internal/zoo's family builders,
// so each row's Params label is derived from the configuration it ran.
type SchedulerSpec = zoo.Spec[uint32]

// registered resolves a default-configured scheduler from the zoo
// registry; an unknown name is a programming error in this package.
func registered(name string) SchedulerSpec {
	spec, ok := zoo.Lookup[uint32](name)
	if !ok {
		panic(fmt.Sprintf("harness: scheduler %q is not in the zoo registry", name))
	}
	return spec
}

// StandardSchedulers is the Figure 2 lineup — SMQ default + tuned, the
// skip-list SMQ, the optimized NUMA-aware classic MQ, OBIM, PMOD,
// SprayList and RELD — extended with the engineered MultiQueue of
// Williams et al. (2021) and the k-LSM of Wimmer et al. (2015) as
// additional comparison series.
func StandardSchedulers() []SchedulerSpec {
	return []SchedulerSpec{
		registered("smq"),
		zoo.SMQ[uint32]("smq-tuned", core.Config{StealSize: 8, StealProb: 1.0 / 4}),
		registered("smq-skip"),
		zoo.MQ[uint32]("mq-numa", mq.Config{C: 4,
			Insert: mq.InsertBatch, BatchInsert: 8,
			Delete: mq.DeleteBatch, BatchDelete: 8,
			NUMANodes: 2, NUMAWeightK: 8}),
		registered("mq"),
		registered("emq"),
		registered("klsm"),
		registered("obim"),
		registered("pmod"),
		registered("spray"),
		registered("reld"),
	}
}

// AllSchedulers is StandardSchedulers plus the two exact reference
// points outside the paper's Figure 2 lineup (so fig2 stays faithful):
// the coarse-locked global heap strawman — exact priority order, zero
// scalability — and the lock-free CBPQ, exact with no lock at all. The
// rank-probe and rank-regression experiments use both as
// zero-relaxation references.
func AllSchedulers() []SchedulerSpec {
	return append(StandardSchedulers(), registered("coarse"), registered("cbpq"))
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
		res, err := w.Run(spec.Make(threads, repSeed(seed, r)), validate)
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
