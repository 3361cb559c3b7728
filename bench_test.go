package smq

// Benchmarks regenerating every table and figure of the paper at
// laptop scale (one testing.B target per artifact; full parameter grids
// live behind `go run ./cmd/smqbench`). Each benchmark iteration runs a
// complete workload (e.g. one SSSP traversal), so ns/op is end-to-end
// time; the shape comparisons — who wins and by roughly what factor —
// are recorded per PR in CHANGES.md.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/pq"
	"repro/internal/ranksim"
	"repro/internal/sched"
)

const benchWorkers = 4

var (
	benchGraphsOnce sync.Once
	benchRoad       *graph.CSR
	benchRMAT       *graph.CSR
)

func benchGraphs() (*graph.CSR, *graph.CSR) {
	benchGraphsOnce.Do(func() {
		benchRoad = graph.GenerateRoadGrid(128, 64, 42)
		benchRMAT = graph.GenerateRMAT(12, 16, graph.DefaultRMATParams(), 44)
	})
	return benchRoad, benchRMAT
}

func benchSSSP(b *testing.B, mk func() sched.Scheduler[uint32], g *graph.CSR) {
	b.Helper()
	src := g.MaxOutDegreeVertex()
	b.ReportAllocs()
	b.ResetTimer()
	var tasks uint64
	for i := 0; i < b.N; i++ {
		_, res := SSSP(g, src, mk())
		tasks += res.Tasks
	}
	b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
}

// benchSpecs resolves default-configured schedulers from the registry.
func benchSpecs(b *testing.B, names ...string) []Spec[uint32] {
	b.Helper()
	specs := make([]Spec[uint32], len(names))
	for i, name := range names {
		spec, ok := LookupSpec[uint32](name)
		if !ok {
			b.Fatalf("scheduler %q is not in the registry", name)
		}
		specs[i] = spec
	}
	return specs
}

// --- Table 1 -----------------------------------------------------------

// BenchmarkTable1_Graphs measures generation of the four benchmark
// inputs (the Table 1 substitutes).
func BenchmarkTable1_Graphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gs := graph.StandardInputs(1)
		if len(gs) != 4 {
			b.Fatal("wrong input count")
		}
	}
}

// --- Tables 2-3 --------------------------------------------------------

// BenchmarkTable2_ClassicMQ_C sweeps the classic Multi-Queue's C
// multiplier on SSSP (Tables 2-3's dimension).
func BenchmarkTable2_ClassicMQ_C(b *testing.B) {
	road, _ := benchGraphs()
	for _, c := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return mq.New[uint32](mq.Classic(benchWorkers, c))
			}, road)
		})
	}
}

// --- Figure 1 / Figures 17-18 ------------------------------------------

// BenchmarkFig1_SMQ_Ablation sweeps the SMQ-heap's psteal × stealSize
// (Figure 1's two axes) on SSSP.
func BenchmarkFig1_SMQ_Ablation(b *testing.B) {
	road, _ := benchGraphs()
	for _, p := range []float64{0.5, 0.125, 0.03125} {
		for _, size := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("psteal=%.3g/steal=%d", p, size), func(b *testing.B) {
				benchSSSP(b, func() sched.Scheduler[uint32] {
					return core.NewStealingMQ[uint32](core.Config{
						Workers: benchWorkers, StealProb: p, StealSize: size})
				}, road)
			})
		}
	}
}

// --- Figures 19-20 ------------------------------------------------------

// BenchmarkFig19_SMQSkip_Ablation sweeps the skip-list SMQ variant.
func BenchmarkFig19_SMQSkip_Ablation(b *testing.B) {
	road, _ := benchGraphs()
	for _, p := range []float64{0.25, 0.0625} {
		for _, size := range []int{4, 16} {
			b.Run(fmt.Sprintf("psteal=%.3g/steal=%d", p, size), func(b *testing.B) {
				benchSSSP(b, func() sched.Scheduler[uint32] {
					return core.NewStealingMQSkipList[uint32](core.Config{
						Workers: benchWorkers, StealProb: p, StealSize: size})
				}, road)
			})
		}
	}
}

// --- Figure 2 / Figures 21-22 ------------------------------------------

// BenchmarkFig2_Comparison is the headline comparison: every scheduler on
// SSSP over the road and RMAT inputs.
func BenchmarkFig2_Comparison(b *testing.B) {
	road, rmat := benchGraphs()
	for _, spec := range harness.StandardSchedulers() {
		spec := spec
		b.Run("SSSP_road/"+spec.Name, func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] { return spec.Make(benchWorkers, 0) }, road)
		})
		b.Run("SSSP_rmat/"+spec.Name, func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] { return spec.Make(benchWorkers, 0) }, rmat)
		})
	}
}

// BenchmarkFig2_BFS covers the BFS panels of Figure 2 for the headline
// schedulers.
func BenchmarkFig2_BFS(b *testing.B) {
	road, rmat := benchGraphs()
	for _, spec := range harness.StandardSchedulers()[:4] {
		spec := spec
		for _, tc := range []struct {
			name string
			g    *graph.CSR
		}{{"road", road}, {"rmat", rmat}} {
			b.Run(tc.name+"/"+spec.Name, func(b *testing.B) {
				src := tc.g.MaxOutDegreeVertex()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					BFS(tc.g, src, spec.Make(benchWorkers, 0))
				}
			})
		}
	}
}

// BenchmarkFig2_AStar covers the A* panels.
func BenchmarkFig2_AStar(b *testing.B) {
	road, _ := benchGraphs()
	for _, spec := range harness.StandardSchedulers()[:4] {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AStar(road, 0, uint32(road.N-1), spec.Make(benchWorkers, 0))
			}
		})
	}
}

// BenchmarkFig2_MST covers the MST panels.
func BenchmarkFig2_MST(b *testing.B) {
	road, _ := benchGraphs()
	for _, spec := range harness.StandardSchedulers()[:4] {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BoruvkaMST(road, spec.Make(benchWorkers, 0))
			}
		})
	}
}

// --- Figures 3-6 ---------------------------------------------------------

// BenchmarkFig3_OBIM_Tuning sweeps OBIM's delta and chunk size; the PMOD
// row shows the adaptive variant against the same grid.
func BenchmarkFig3_OBIM_Tuning(b *testing.B) {
	road, _ := benchGraphs()
	for _, delta := range []uint32{4, 10, 16} {
		for _, chunk := range []int{8, 64} {
			b.Run(fmt.Sprintf("OBIM/delta=%d/chunk=%d", delta, chunk), func(b *testing.B) {
				benchSSSP(b, func() sched.Scheduler[uint32] {
					return NewOBIM[uint32](OBIMConfig{Workers: benchWorkers, Delta: delta, ChunkSize: chunk})
				}, road)
			})
		}
	}
	b.Run("PMOD/adaptive", func(b *testing.B) {
		benchSSSP(b, func() sched.Scheduler[uint32] {
			return NewPMOD[uint32](OBIMConfig{Workers: benchWorkers})
		}, road)
	})
}

// --- Figures 7-14 (Tables 4-11) -----------------------------------------

// BenchmarkFig7_MQ_TL_TL: temporal locality on both operations.
func BenchmarkFig7_MQ_TL_TL(b *testing.B) {
	road, _ := benchGraphs()
	for _, p := range []float64{1, 1.0 / 64, 1.0 / 1024} {
		b.Run(fmt.Sprintf("p=%.4g", p), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return mq.New[uint32](mq.Config{Workers: benchWorkers, C: 4,
					Insert: mq.InsertTemporalLocality, PInsertChange: p,
					Delete: mq.DeleteTemporalLocality, PDeleteChange: p})
			}, road)
		})
	}
}

// BenchmarkFig9_MQ_TL_B: temporal-locality insert, batched delete.
func BenchmarkFig9_MQ_TL_B(b *testing.B) {
	road, _ := benchGraphs()
	for _, batch := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return mq.New[uint32](mq.Config{Workers: benchWorkers, C: 4,
					Insert: mq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
					Delete: mq.DeleteBatch, BatchDelete: batch})
			}, road)
		})
	}
}

// BenchmarkFig11_MQ_B_TL: batched insert, temporal-locality delete.
func BenchmarkFig11_MQ_B_TL(b *testing.B) {
	road, _ := benchGraphs()
	for _, batch := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return mq.New[uint32](mq.Config{Workers: benchWorkers, C: 4,
					Insert: mq.InsertBatch, BatchInsert: batch,
					Delete: mq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64})
			}, road)
		})
	}
}

// BenchmarkFig13_MQ_B_B: batching on both operations.
func BenchmarkFig13_MQ_B_B(b *testing.B) {
	road, _ := benchGraphs()
	for _, batch := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return mq.New[uint32](mq.Config{Workers: benchWorkers, C: 4,
					Insert: mq.InsertBatch, BatchInsert: batch,
					Delete: mq.DeleteBatch, BatchDelete: batch})
			}, road)
		})
	}
}

// BenchmarkFig15_MQ_Best compares the four optimization combinations at
// their representative good settings (Figures 15-16).
func BenchmarkFig15_MQ_Best(b *testing.B) {
	road, _ := benchGraphs()
	combos := map[string]mq.Config{
		"TL_TL": {Workers: benchWorkers, C: 4, Insert: mq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
			Delete: mq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64},
		"TL_B": {Workers: benchWorkers, C: 4, Insert: mq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
			Delete: mq.DeleteBatch, BatchDelete: 8},
		"B_TL": {Workers: benchWorkers, C: 4, Insert: mq.InsertBatch, BatchInsert: 8,
			Delete: mq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64},
		"B_B": {Workers: benchWorkers, C: 4, Insert: mq.InsertBatch, BatchInsert: 8,
			Delete: mq.DeleteBatch, BatchDelete: 8},
	}
	for name, cfg := range combos {
		cfg := cfg
		b.Run(name, func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] { return mq.New[uint32](cfg) }, road)
		})
	}
}

// --- Engineered MultiQueue (Williams et al. 2021) -------------------------

// BenchmarkEMQ_Ablation sweeps the engineered MultiQueue's two
// engineering knobs — stickiness period and operation-buffer capacity —
// on SSSP (the `emq` experiment's axes). The stick=1/buf=1 corner
// degenerates to the classic per-operation Multi-Queue discipline.
func BenchmarkEMQ_Ablation(b *testing.B) {
	road, _ := benchGraphs()
	for _, stick := range []int{1, 16, 64} {
		for _, buf := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("stick=%d/buf=%d", stick, buf), func(b *testing.B) {
				benchSSSP(b, func() sched.Scheduler[uint32] {
					cfg := mq.Engineered(benchWorkers)
					cfg.Stickiness, cfg.BatchInsert, cfg.BatchDelete = stick, buf, buf
					return mq.New[uint32](cfg)
				}, road)
			})
		}
	}
}

// BenchmarkEMQ_Throughput compares the engineered MultiQueue's default
// configuration against the classic MQ and the SMQ on both graph shapes
// (the EMQ series added to the Figure 2 comparison).
func BenchmarkEMQ_Throughput(b *testing.B) {
	road, rmat := benchGraphs()
	for _, spec := range benchSpecs(b, "emq", "mq", "smq") {
		spec := spec
		b.Run("SSSP_road/"+spec.Name, func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] { return spec.Make(benchWorkers, 0) }, road)
		})
		b.Run("SSSP_rmat/"+spec.Name, func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] { return spec.Make(benchWorkers, 0) }, rmat)
		})
	}
}

// --- k-LSM (Wimmer et al. 2015) --------------------------------------------

// BenchmarkKLSM_Ablation sweeps the k-LSM's relaxation bound k — the
// local-LSM capacity, its single knob and the `klsm` experiment's axis —
// on SSSP. Small k means constant spilling and global-lock traffic;
// large k trades rank quality for local, synchronization-free pops.
func BenchmarkKLSM_Ablation(b *testing.B) {
	road, _ := benchGraphs()
	for _, k := range []int{4, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return klsm.New[uint32](klsm.Config{Workers: benchWorkers, Relaxation: k})
			}, road)
		})
	}
}

// BenchmarkKLSM_Throughput compares the k-LSM's default configuration
// (k=256) against the classic MQ and the SMQ on both graph shapes — the
// paper's Figure 2 head-to-head with its strongest non-Multi-Queue
// baseline.
func BenchmarkKLSM_Throughput(b *testing.B) {
	road, rmat := benchGraphs()
	for _, spec := range benchSpecs(b, "klsm", "mq", "smq") {
		spec := spec
		b.Run("SSSP_road/"+spec.Name, func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] { return spec.Make(benchWorkers, 0) }, road)
		})
		b.Run("SSSP_rmat/"+spec.Name, func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] { return spec.Make(benchWorkers, 0) }, rmat)
		})
	}
}

// --- Geometric workloads (k-NN graph construction, Euclidean MST) ---------

const (
	benchPointCount = 10000
	benchKNN        = 8
)

var (
	benchPointsOnce sync.Once
	benchPtsUniform *PointSet
	benchPtsGauss   *PointSet
)

func benchPoints() (*PointSet, *PointSet) {
	benchPointsOnce.Do(func() {
		benchPtsUniform = GenerateUniformPoints(benchPointCount, 2, 46)
		benchPtsGauss = GenerateGaussianClusters(benchPointCount, 2, 16, 0.02, 47)
	})
	return benchPtsUniform, benchPtsGauss
}

// BenchmarkGeom_KNNGraph measures parallel k-NN graph construction —
// the first non-CSR workload family — for the headline schedulers on
// both point distributions.
func BenchmarkGeom_KNNGraph(b *testing.B) {
	uniform, gauss := benchPoints()
	for _, spec := range harness.StandardSchedulers()[:4] {
		spec := spec
		for _, tc := range []struct {
			name string
			ps   *PointSet
		}{{"uniform", uniform}, {"gauss", gauss}} {
			b.Run(tc.name+"/"+spec.Name, func(b *testing.B) {
				b.ReportAllocs()
				var tasks uint64
				for i := 0; i < b.N; i++ {
					_, res := KNNGraph(tc.ps, benchKNN, spec.Make(benchWorkers, 0))
					tasks += res.Tasks
				}
				b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
			})
		}
	}
}

// BenchmarkGeom_EMST measures the exact Euclidean MST (k-NN candidates
// + Boruvka contraction with the widen-radius fallback) end to end.
func BenchmarkGeom_EMST(b *testing.B) {
	uniform, gauss := benchPoints()
	wantUW, _ := EuclideanMSTSeq(uniform)
	wantGW, _ := EuclideanMSTSeq(gauss)
	for _, spec := range harness.StandardSchedulers()[:4] {
		spec := spec
		for _, tc := range []struct {
			name string
			ps   *PointSet
			want uint64
		}{{"uniform", uniform, wantUW}, {"gauss", gauss, wantGW}} {
			b.Run(tc.name+"/"+spec.Name, func(b *testing.B) {
				var tasks uint64
				for i := 0; i < b.N; i++ {
					w, _, res := EuclideanMST(tc.ps, benchKNN, spec.Make(benchWorkers, 0))
					if w != tc.want {
						b.Fatalf("EMST weight %d, want %d", w, tc.want)
					}
					tasks += res.Tasks
				}
				b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
			})
		}
	}
}

// BenchmarkGeom_SeqBaselines records the sequential reference costs the
// parallel geometric runs are compared against.
func BenchmarkGeom_SeqBaselines(b *testing.B) {
	uniform, _ := benchPoints()
	b.Run("KNNGraphSeq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.KNNGraphSeq(uniform, benchKNN)
		}
	})
	b.Run("PrimEMSTSeq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algos.PrimEMSTSeq(uniform)
		}
	})
}

// --- Tables 16-27 --------------------------------------------------------

// BenchmarkNUMA_K sweeps the virtual-NUMA weight divisor K for the SMQ.
func BenchmarkNUMA_K(b *testing.B) {
	road, _ := benchGraphs()
	for _, k := range []float64{1, 8, 256} {
		b.Run(fmt.Sprintf("K=%g", k), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return core.NewStealingMQ[uint32](core.Config{
					Workers: benchWorkers, NUMANodes: 2, NUMAWeightK: k})
			}, road)
		})
	}
}

// --- Theorem 1 ------------------------------------------------------------

// BenchmarkTheory_RankBounds runs the §3 discrete rank model across
// stealing probabilities, reporting the measured mean rank as a metric.
func BenchmarkTheory_RankBounds(b *testing.B) {
	for _, p := range []float64{0.5, 0.125} {
		b.Run(fmt.Sprintf("psteal=%.3g", p), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res := ranksim.RunDiscrete(ranksim.DiscreteConfig{
					Queues: 32, Elements: 100000, StealProb: p, Batch: 1, Seed: uint64(i + 1)})
				mean = res.MeanRemovedRank
			}
			b.ReportMetric(mean, "meanRank")
		})
	}
}

// --- Design ablations --------------------------------------------------

// BenchmarkAblation_HeapArity compares local-heap fan-outs inside the
// full SMQ (design decision 4: d = 4).
func BenchmarkAblation_HeapArity(b *testing.B) {
	road, _ := benchGraphs()
	for _, d := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchSSSP(b, func() sched.Scheduler[uint32] {
				return core.NewStealingMQ[uint32](core.Config{Workers: benchWorkers, HeapArity: d})
			}, road)
		})
	}
}

// mutexBuffer is the obvious lock-based alternative to the epoch/CAS
// stealing buffer, used only by the ablation benchmark below.
type mutexBuffer struct {
	mu    sync.Mutex
	items []pq.Item[int]
}

func (m *mutexBuffer) fill(items []pq.Item[int]) {
	m.mu.Lock()
	m.items = append(m.items[:0], items...)
	m.mu.Unlock()
}

func (m *mutexBuffer) steal(dst []pq.Item[int]) []pq.Item[int] {
	m.mu.Lock()
	dst = append(dst, m.items...)
	m.items = m.items[:0]
	m.mu.Unlock()
	return dst
}

// BenchmarkAblation_StealBuffer compares the paper's single-word
// epoch publication protocol against a mutex-guarded buffer on the
// publish→claim cycle (design decision 3). Neither allocates; the epoch
// protocol never blocks thieves behind the owner.
func BenchmarkAblation_StealBuffer(b *testing.B) {
	batch := []pq.Item[int]{{P: 1, V: 1}, {P: 2, V: 2}, {P: 3, V: 3}, {P: 4, V: 4}}
	b.Run("epochCAS", func(b *testing.B) {
		q := core.NewBenchQueue(4)
		dst := make([]pq.Item[int], 0, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Refill(batch) // owner publishes
			dst = q.Steal(dst[:0])
			if len(dst) == 0 {
				b.Fatal("steal failed")
			}
		}
	})
	b.Run("mutex", func(b *testing.B) {
		var q mutexBuffer
		dst := make([]pq.Item[int], 0, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.fill(batch)
			dst = q.steal(dst[:0])
			if len(dst) == 0 {
				b.Fatal("steal failed")
			}
		}
	})
}
