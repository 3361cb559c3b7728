// knn: parallel k-nearest-neighbour graph construction and exact
// Euclidean MST over a generated point set, driven by relaxed
// schedulers (task priority = quantized distance, so dense regions
// resolve first), verified against the sequential O(n^2) Prim baseline.
package main

import (
	"flag"
	"fmt"
	"runtime"

	smq "repro"
)

func main() {
	n := flag.Int("n", 20000, "number of points")
	dim := flag.Int("dim", 2, "point dimension")
	k := flag.Int("k", 8, "neighbors per point")
	clusters := flag.Int("clusters", 0, "Gaussian clusters (0 = uniform cube)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
	flag.Parse()

	var ps *smq.PointSet
	if *clusters > 0 {
		ps = smq.GenerateGaussianClusters(*n, *dim, *clusters, 0.02, 7)
		fmt.Printf("%d points in %d Gaussian clusters (dim %d), k=%d, %d workers\n\n",
			*n, *clusters, *dim, *k, *workers)
	} else {
		ps = smq.GenerateUniformPoints(*n, *dim, 7)
		fmt.Printf("%d uniform points (dim %d), k=%d, %d workers\n\n", *n, *dim, *k, *workers)
	}

	wantW, wantE := smq.EuclideanMSTSeq(ps)
	fmt.Printf("sequential Prim baseline: weight=%d edges=%d\n\n", wantW, wantE)

	for _, e := range []struct {
		name string
		mk   func() smq.Scheduler[uint32]
	}{
		{"SMQ", func() smq.Scheduler[uint32] {
			return smq.NewStealingMQ[uint32](smq.SMQConfig{Workers: *workers})
		}},
		{"MultiQueue", func() smq.Scheduler[uint32] {
			return smq.NewClassicMultiQueue[uint32](*workers, 4)
		}},
		{"EMQ", func() smq.Scheduler[uint32] {
			return smq.NewEngineeredMQ[uint32](*workers)
		}},
	} {
		g, res := smq.KNNGraph(ps, *k, e.mk())
		fmt.Printf("%-12s k-NN graph: edges=%-8d time=%-12v tasks=%d\n",
			e.name, g.M(), res.Duration.Round(1000), res.Tasks)

		weight, edges, res := smq.EuclideanMST(ps, *k, e.mk())
		status := "OK"
		if weight != wantW || edges != wantE {
			status = fmt.Sprintf("MISMATCH want (%d, %d)", wantW, wantE)
		}
		fmt.Printf("%-12s EMST:       weight=%-10d edges=%-7d time=%-12v tasks=%d  %s\n",
			e.name, weight, edges, res.Duration.Round(1000), res.Tasks, status)
	}
}
