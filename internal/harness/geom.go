package harness

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/algos"
	"repro/internal/geom"
	"repro/internal/graph"
)

// The geom experiment: the geometric workload family (k-NN graph
// construction and Euclidean MST over point sets) run across the full
// scheduler lineup × point-distribution grid. These are the classic
// relaxed-priority-queue workloads of Rihani, Sanders and Dementiev
// (2014) — distance-priority expansion over an implicit graph — and the
// first non-CSR task-generation pattern in the harness.

// geomK is the neighbour count of the experiment's k-NN workloads.
const geomK = 8

// geomPointSet is one named point distribution of the grid.
type geomPointSet struct {
	Name string
	PS   *geom.PointSet
}

// geomDistributions builds the experiment's point-set grid at the given
// scale, seeded reproducibly like graph.StandardInputs.
func geomDistributions(scale int) []geomPointSet {
	if scale < 1 {
		scale = 1
	}
	n := 1500 * scale
	return []geomPointSet{
		{"UNIFORM", geom.UniformCube(n, 2, 46)},
		{"GAUSS", geom.GaussianClusters(n, 2, 16, 0.02, 47)},
		{"CUBE3D", geom.UniformCube(2*n/3, 3, 48)},
	}
}

// geomBaseline memoizes one distribution's sequential references so
// that, in-process, the expensive O(n^2) Prim runs once per
// distribution even though several cells need its answer. A cell run
// alone recomputes it — cells stay self-contained.
type geomBaseline struct {
	once    sync.Once
	knnWant *graph.CSR
	wantW   uint64
	wantE   int
}

func (b *geomBaseline) ensure(ps *geom.PointSet) {
	b.once.Do(func() {
		b.knnWant, _ = algos.KNNGraphSeq(ps, geomK)
		b.wantW, b.wantE = algos.PrimEMSTSeq(ps)
	})
}

// planGeom measures every standard scheduler on both geometric
// workloads over every distribution, one table per workload with a row
// per scheduler × distribution. Speedups are against the sequential
// baselines (kd-tree k-NN build, O(n^2) Prim); Euclidean MST results
// are always checked exactly against Prim (weight and edge count), and
// with cfg.Validate the k-NN graphs are also compared structurally
// against the sequential reference.
func planGeom(cfg RunConfig) (*Plan, error) {
	p := NewPlan("geom", cfg)
	dists := geomDistributions(p.Config.Scale)
	specs := StandardSchedulers()
	threads := p.Config.MaxThreads
	validate := p.Config.Validate

	type distRefs struct {
		seqKNN, seqPrim int
		knn, mst        []int
	}
	refs := make([]distRefs, len(dists))
	bases := make([]*geomBaseline, len(dists))
	for di := range dists {
		bases[di] = &geomBaseline{}
	}
	for di, d := range dists {
		d, base := d, bases[di]
		refs[di].seqKNN = p.AddCell(Cell{
			Kind: "seq", Key: "seq/knn/" + d.Name, Workload: "kNN " + d.Name, Threads: 1,
		}, func(Cell) (CellResult, error) {
			start := time.Now()
			base.ensure(d.PS) // timed: the kd-tree k-NN build dominates this cell
			return CellResult{DurationNs: time.Since(start).Nanoseconds()}, nil
		})
		refs[di].seqPrim = p.AddCell(Cell{
			Kind: "seq", Key: "seq/prim/" + d.Name, Workload: "EMST " + d.Name, Threads: 1,
		}, func(Cell) (CellResult, error) {
			start := time.Now()
			wantW, _ := algos.PrimEMSTSeq(d.PS)
			dur := time.Since(start)
			base.ensure(d.PS)
			return CellResult{DurationNs: dur.Nanoseconds(),
				Values: map[string]float64{"weight": float64(wantW)}}, nil
		})
		for _, spec := range specs {
			spec := spec
			refs[di].knn = append(refs[di].knn, p.AddCell(Cell{
				Kind: "measure", Key: measureKey("knn", d.Name, spec.Name, spec.Params, threads),
				Workload: "kNN " + d.Name, Scheduler: spec.Name, Params: spec.Params, Threads: threads,
			}, func(c Cell) (CellResult, error) {
				best, err := bestOf(c.Reps, c.Seed, func(seed uint64) (algos.Result, error) {
					got, res := algos.KNNGraph(d.PS, geomK, spec.Make(c.Threads, seed))
					if validate {
						base.ensure(d.PS)
						if !reflect.DeepEqual(got, base.knnWant) {
							return res, fmt.Errorf("geom: %s/%s: k-NN graph differs from sequential reference", d.Name, spec.Name)
						}
					}
					return res, nil
				})
				if err != nil {
					return CellResult{}, err
				}
				return CellResult{DurationNs: best.Duration.Nanoseconds(), Tasks: best.Tasks,
					Values: map[string]float64{"work": best.WorkIncrease(uint64(d.PS.N()))}}, nil
			}))
			refs[di].mst = append(refs[di].mst, p.AddCell(Cell{
				Kind: "measure", Key: measureKey("mst", d.Name, spec.Name, spec.Params, threads),
				Workload: "EMST " + d.Name, Scheduler: spec.Name, Params: spec.Params, Threads: threads,
			}, func(c Cell) (CellResult, error) {
				base.ensure(d.PS) // exactness check is unconditional for EMST
				best, err := bestOf(c.Reps, c.Seed, func(seed uint64) (algos.Result, error) {
					gotW, gotE, res := algos.EuclideanMST(d.PS, geomK, spec.Make(c.Threads, seed))
					if gotW != base.wantW || gotE != base.wantE {
						return res, fmt.Errorf("geom: %s/%s: EMST = (%d, %d), want (%d, %d)",
							d.Name, spec.Name, gotW, gotE, base.wantW, base.wantE)
					}
					return res, nil
				})
				if err != nil {
					return CellResult{}, err
				}
				return CellResult{DurationNs: best.Duration.Nanoseconds(), Tasks: best.Tasks,
					Values: map[string]float64{"work": best.WorkIncrease(uint64(2 * d.PS.N()))}}, nil
			}))
		}
	}

	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		knnTable := Table{
			Title: fmt.Sprintf("Geometric workloads — parallel k-NN graph construction (k=%d, %d threads; speedup vs sequential kd-tree build)",
				geomK, threads),
			Header: []string{"Distribution", "Scheduler", "Threads", "Time", "Speedup", "WorkIncrease"},
		}
		mstTable := Table{
			Title: fmt.Sprintf("Geometric workloads — Euclidean MST (k=%d candidates, %d threads; speedup vs sequential O(n^2) Prim)",
				geomK, threads),
			Header: []string{"Distribution", "Scheduler", "Threads", "Time", "Speedup", "WorkIncrease"},
		}
		for di, d := range dists {
			knnSeq := cellDur(rs[refs[di].seqKNN])
			primSeq := cellDur(rs[refs[di].seqPrim])
			for si, spec := range specs {
				k := rs[refs[di].knn[si]]
				knnTable.AddRow(d.Name, spec.Name, fmt.Sprint(threads),
					cellDur(k).Round(time.Microsecond).String(),
					fm(safeRatio(knnSeq, cellDur(k))), fm(k.Values["work"]))
				m := rs[refs[di].mst[si]]
				mstTable.AddRow(d.Name, spec.Name, fmt.Sprint(threads),
					cellDur(m).Round(time.Microsecond).String(),
					fm(safeRatio(primSeq, cellDur(m))), fm(m.Values["work"]))
			}
		}
		return []Table{knnTable, mstTable}, nil
	})
	return p, nil
}
